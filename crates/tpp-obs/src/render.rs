//! Deterministic cell-grid dashboard renderer.
//!
//! A frame is a fixed `width × height` character grid rendered as a
//! **pure function** of a [`FleetSnapshot`] and a [`DashState`]: no
//! clocks, no RNG, no terminal queries, no float formatting. The same
//! snapshot and state always produce the same bytes, which is what lets
//! CI pin frames in `tests/golden/` and byte-diff them across shard
//! counts. The interactive loop in `tpp_top` merely re-captures a
//! snapshot and re-renders; all of its state lives in [`DashState`] and
//! is mutated only by [`DashState::apply_key`].

use std::fmt::{self, Write as _};

use crate::export::SeriesDump;
use crate::snapshot::{FleetSnapshot, SortKey};
use crate::window::{max_value, newest, WindowAgg, WindowLabel, SIM_WINDOWS, WALL_WINDOWS};

/// Block glyphs for one-cell bars, shallowest to fullest.
pub const SPARK_GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// One block glyph per value, scaled against the values' own maximum;
/// an all-zero run renders as a flat floor.
struct Spark<I>(I);

impl<I: Iterator<Item = u64> + Clone> fmt::Display for Spark<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let max = self.0.clone().max().unwrap_or(0);
        for v in self.0.clone() {
            let level = (v * 7).checked_div(max).unwrap_or(0);
            f.write_char(SPARK_GLYPHS[level as usize])?;
        }
        Ok(())
    }
}

/// [`Spark`] as a string. Values beyond `width` are dropped from the
/// left (newest stay).
pub(crate) fn spark_raw(values: &[u64], width: usize) -> String {
    let start = values.len().saturating_sub(width);
    Spark(values[start..].iter().copied()).to_string()
}

/// Sparkline over folded windows: one glyph per window, newest `width`
/// (the window *max* — peaks are what a dashboard must not smooth away).
fn sparkline(windows: &[WindowAgg], width: usize) -> Spark<impl Iterator<Item = u64> + Clone + '_> {
    Spark(newest(windows, width).iter().map(|w| w.max))
}

/// A fixed-size character grid. Writes clip at the edges, so layout
/// bugs degrade to truncation instead of frame-size drift.
#[derive(Debug, Clone)]
pub struct FrameBuf {
    width: usize,
    height: usize,
    cells: Vec<char>,
}

/// A write position in a [`FrameBuf`]. Text written through it with
/// `write!` lands in consecutive cells of one row, clipped like
/// [`FrameBuf::put`], so a formatted line needs no `String` of its own.
struct Cursor<'a> {
    frame: &'a mut FrameBuf,
    x: usize,
    y: usize,
}

impl fmt::Write for Cursor<'_> {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        let FrameBuf {
            width,
            height,
            cells,
        } = &mut *self.frame;
        if self.y < *height {
            let row = &mut cells[self.y * *width..(self.y + 1) * *width];
            for ch in text.chars() {
                let Some(cell) = row.get_mut(self.x) else {
                    break;
                };
                *cell = ch;
                self.x += 1;
            }
        }
        Ok(())
    }
}

impl FrameBuf {
    /// A blank `width × height` frame (both clamped to at least 1).
    pub fn new(width: usize, height: usize) -> FrameBuf {
        let width = width.max(1);
        let height = height.max(1);
        FrameBuf {
            width,
            height,
            cells: vec![' '; width * height],
        }
    }

    /// Frame width in cells.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in rows.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Write `text` starting at `(x, y)`, clipping at the right edge
    /// and ignoring out-of-range rows.
    pub fn put(&mut self, x: usize, y: usize, text: &str) {
        let _ = self.at(x, y).write_str(text);
    }

    /// [`FrameBuf::put`] for formatted text, written straight into the
    /// cells.
    fn put_fmt(&mut self, x: usize, y: usize, args: fmt::Arguments<'_>) {
        let _ = self.at(x, y).write_fmt(args);
    }

    /// A cursor at `(x, y)`, for a line written in pieces.
    fn at(&mut self, x: usize, y: usize) -> Cursor<'_> {
        Cursor { frame: self, x, y }
    }

    /// Fill row `y` with `ch`.
    pub(crate) fn hline(&mut self, y: usize, ch: char) {
        if y < self.height {
            for x in 0..self.width {
                self.cells[y * self.width + x] = ch;
            }
        }
    }

    /// The frame as text: `height` lines of exactly `width` cells, each
    /// newline-terminated, in one buffer of exactly its size.
    pub fn render(&self) -> String {
        let bytes = self.cells.iter().map(|c| c.len_utf8()).sum::<usize>() + self.height;
        let mut out = String::with_capacity(bytes);
        for row in self.cells.chunks(self.width) {
            out.extend(row);
            out.push('\n');
        }
        out
    }
}

/// The dashboard's metric categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tab {
    /// Pipeline span latency + collector RTT view.
    Latency,
    /// Queue occupancy and drops.
    Queues,
    /// TCPU flow/decode cache hit rates.
    Caches,
    /// Closed-loop transport counters, FCT, ECMP spread.
    Transport,
    /// Bonded-path health and fleet fault series.
    Paths,
}

impl Tab {
    /// All tabs, in hotkey order (`1`–`5`).
    pub const ALL: [Tab; 5] = [
        Tab::Latency,
        Tab::Queues,
        Tab::Caches,
        Tab::Transport,
        Tab::Paths,
    ];

    /// Tab-bar label.
    pub fn title(self) -> &'static str {
        match self {
            Tab::Latency => "latency",
            Tab::Queues => "queues",
            Tab::Caches => "caches",
            Tab::Transport => "transport",
            Tab::Paths => "paths",
        }
    }

    fn index(self) -> usize {
        Tab::ALL.iter().position(|&t| t == self).unwrap_or(0)
    }

    /// The next tab, wrapping.
    pub fn next(self) -> Tab {
        Tab::ALL[(self.index() + 1) % Tab::ALL.len()]
    }

    /// The previous tab, wrapping.
    pub fn prev(self) -> Tab {
        Tab::ALL[(self.index() + Tab::ALL.len() - 1) % Tab::ALL.len()]
    }
}

/// All interactive dashboard state. Rendering reads it; only
/// [`DashState::apply_key`] writes it, so a key script fully determines
/// the frame sequence.
#[derive(Debug, Clone)]
pub struct DashState {
    /// Active metric category.
    pub tab: Tab,
    /// Index into [`Self::windows`].
    pub window_idx: usize,
    /// The window-width preset in effect (`w` cycles within it).
    pub windows: [u64; 4],
    /// Fleet-table sort order.
    pub sort: SortKey,
    /// Snapshot refresh paused.
    pub paused: bool,
    /// Quit requested.
    pub quit: bool,
}

impl Default for DashState {
    fn default() -> Self {
        DashState {
            tab: Tab::Latency,
            window_idx: 1,
            windows: SIM_WINDOWS,
            sort: SortKey::SwitchId,
            paused: false,
            quit: false,
        }
    }
}

impl DashState {
    /// A state using the paper-scale wall-clock windows (1s/10s/1m/5m)
    /// instead of the sim-scale presets.
    pub fn wall_clock() -> Self {
        DashState {
            windows: WALL_WINDOWS,
            ..DashState::default()
        }
    }

    /// The selected window width, ns — what the feed passes to
    /// [`FleetSnapshot::capture`].
    pub fn window_ns(&self) -> u64 {
        self.windows[self.window_idx % self.windows.len()]
    }

    /// Apply one key press. Unknown keys are ignored; returns `true`
    /// when the key changed the state (a redraw is due).
    pub fn apply_key(&mut self, key: char) -> bool {
        match key {
            'q' | '\x03' => self.quit = true,
            '\t' | ']' => self.tab = self.tab.next(),
            '[' => self.tab = self.tab.prev(),
            '1'..='5' => self.tab = Tab::ALL[(key as usize) - ('1' as usize)],
            'w' => self.window_idx = (self.window_idx + 1) % self.windows.len(),
            's' => self.sort = self.sort.next(),
            'p' | ' ' => self.paused = !self.paused,
            _ => return false,
        }
        true
    }
}

/// A duration for display: `1.234s`, `5.000ms`, `12us`, `800ns`.
struct Ns(u64);

impl fmt::Display for Ns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t_ns = self.0;
        if t_ns >= 1_000_000_000 {
            let ms = (t_ns % 1_000_000_000) / 1_000_000;
            write!(f, "{}.{ms:03}s", t_ns / 1_000_000_000)
        } else if t_ns >= 1_000_000 {
            write!(
                f,
                "{}.{:03}ms",
                t_ns / 1_000_000,
                (t_ns % 1_000_000) / 1_000
            )
        } else if t_ns >= 1_000 {
            write!(f, "{}us", t_ns / 1_000)
        } else {
            write!(f, "{t_ns}ns")
        }
    }
}

fn header(frame: &mut FrameBuf, snap: &FleetSnapshot, state: &DashState) {
    let mut line = frame.at(0, 0);
    let _ = write!(
        line,
        " TPP FLEET  t={}  switches={}  hosts={}  ticks={}",
        Ns(snap.t_ns),
        snap.switches.len(),
        snap.num_hosts,
        snap.ticks
    );
    if state.paused {
        let _ = line.write_str("  *PAUSED*");
    }

    let mut tabs = frame.at(0, 1);
    let _ = tabs.write_char(' ');
    for (i, t) in Tab::ALL.iter().enumerate() {
        if *t == state.tab {
            let _ = write!(tabs, "[{}:", i + 1);
            for ch in t.title().chars() {
                let _ = tabs.write_char(ch.to_ascii_uppercase());
            }
            let _ = tabs.write_str("] ");
        } else {
            let _ = write!(tabs, " {}:{}  ", i + 1, t.title());
        }
    }
    let _ = write!(
        tabs,
        "  window={}  sort={}",
        WindowLabel(state.window_ns()),
        state.sort.label()
    );
    frame.hline(2, '-');
}

fn footer(frame: &mut FrameBuf) {
    let y = frame.height().saturating_sub(1);
    frame.put(
        0,
        y,
        " keys: q quit · tab/[/]/1-5 tabs · w window · s sort · p pause",
    );
}

/// Rows available for a table body given `extra` fixed lines below it.
fn body_rows(frame: &FrameBuf, extra: usize) -> usize {
    frame.height().saturating_sub(5 + extra)
}

fn win_cell(windows: Option<&[WindowAgg]>) -> (u64, u64, u64) {
    windows
        .and_then(|w| w.last())
        .map(|w| (w.min, w.sum / w.count.max(1), w.max))
        .unwrap_or((0, 0, 0))
}

/// The sorted fleet table: `head`, then one `row` per switch that fits
/// above `extra` spare lines. Returns the first row below the table.
fn put_switch_table<F>(
    frame: &mut FrameBuf,
    snap: &FleetSnapshot,
    state: &DashState,
    head: &str,
    extra: usize,
    row: F,
) -> usize
where
    F: Fn(&mut dyn fmt::Write, &FleetSnapshot, usize) -> fmt::Result,
{
    frame.put(0, 3, head);
    let order = snap.sorted_switches(state.sort);
    let avail = body_rows(frame, extra);
    let shown = order.len().min(avail);
    for (r, &i) in order.iter().take(shown).enumerate() {
        let _ = row(&mut frame.at(0, 4 + r), snap, i);
    }
    if order.len() > shown {
        let more = order.len() - shown;
        frame.put_fmt(0, 4 + shown, format_args!(" … (+{more} more)"));
    }
    4 + shown + usize::from(order.len() > shown)
}

fn tab_latency(frame: &mut FrameBuf, snap: &FleetSnapshot, state: &DashState) {
    let y = put_switch_table(
        frame,
        snap,
        state,
        " SWITCH      PKTS    SMPL   VIOL   SPAN p50/p99/max cyc    OCC_B",
        4,
        |line, s, i| {
            let r = &s.switches[i];
            write!(
                line,
                " 0x{:<8x} {:>7} {:>7} {:>6}   {:>6}/{:>6}/{:>6}   {:>8}",
                r.switch_id,
                r.packets,
                r.sampled,
                r.violations,
                r.span.0,
                r.span.1,
                r.span.2,
                r.occupancy_bytes
            )
        },
    );
    let c = &snap.collector;
    frame.put_fmt(
        0,
        y + 1,
        format_args!(
            " collector: probes={} echoes={} samples={}  rtt p50/p99/max = {}/{}/{}",
            c.probes_sent,
            c.echoes_received,
            c.samples,
            Ns(c.rtt.0),
            Ns(c.rtt.1),
            Ns(c.rtt.2)
        ),
    );
    frame.put_fmt(
        0,
        y + 2,
        format_args!(
            " divergence vs ground truth: max {} bytes",
            c.divergence_max_bytes
        ),
    );
    if !snap.opcodes.is_empty() {
        let mut line = frame.at(0, y + 3);
        let _ = line.write_str(" tcpu ops: ");
        for (k, (m, n)) in snap.opcodes.iter().take(6).enumerate() {
            let sep = if k > 0 { "  " } else { "" };
            let _ = write!(line, "{sep}{m}:{n}");
        }
    }
}

fn tab_queues(frame: &mut FrameBuf, snap: &FleetSnapshot, state: &DashState) {
    put_switch_table(
        frame,
        snap,
        state,
        " SWITCH     HOT(p,q)     HOT_B   Qmax win min/mean/max      DROP/T  TREND(Qmax)",
        0,
        |line, s, i| {
            let r = &s.switches[i];
            let qmax = s.switch_windows(r, "queue.max_bytes");
            let q = win_cell(qmax);
            let d = win_cell(s.switch_windows(r, "drop.bytes_per_tick"));
            write!(
                line,
                " 0x{:<8x} ({:>2},{:>2}) {:>9}   {:>7}/{:>7}/{:>7} {:>9}  ",
                r.switch_id, r.hot.0, r.hot.1, r.hot.2, q.0, q.1, q.2, d.2
            )?;
            match qmax {
                Some(w) => write!(line, "{}", sparkline(w, 24)),
                None => Ok(()),
            }
        },
    );
}

fn tab_caches(frame: &mut FrameBuf, snap: &FleetSnapshot, state: &DashState) {
    put_switch_table(
        frame,
        snap,
        state,
        " SWITCH     DECODEHIT pm min/mean/max  TREND",
        0,
        |line, s, i| {
            let r = &s.switches[i];
            let hits = s.switch_windows(r, "cache.decode_hit_permille");
            let d = win_cell(hits);
            write!(
                line,
                " 0x{:<8x} {:>4}/{:>4}/{:>4}          ",
                r.switch_id, d.0, d.1, d.2
            )?;
            match hits {
                Some(w) => write!(line, "{}", sparkline(w, 12)),
                None => Ok(()),
            }
        },
    );
}

fn tab_transport(frame: &mut FrameBuf, snap: &FleetSnapshot, _state: &DashState) {
    match &snap.transport {
        Some(t) => {
            let s = &t.stats;
            frame.put_fmt(
                0,
                3,
                format_args!(
                    " flows: started={} completed={} gave_up={}   segments={} acks={}",
                    s.flows_started,
                    s.flows_completed,
                    s.flows_given_up,
                    s.segments_sent,
                    s.acks_sent
                ),
            );
            frame.put_fmt(
                0,
                4,
                format_args!(
                    " loss recovery: retransmits={} rto_fires={} fast_rtx={} dup_rx={} max_backoff={}",
                    s.retransmits, s.rto_fires, s.fast_retransmits, s.dup_segments_rx,
                    s.max_backoff
                ),
            );
            frame.put_fmt(
                0,
                5,
                format_args!(
                    " rate control: probes={} rate_updates={} rate_limited_polls={} epoch_resets={}",
                    s.probes_sent, s.rate_updates, s.rate_limited_polls, s.epoch_resets
                ),
            );
            frame.put_fmt(
                0,
                6,
                format_args!(
                    " fct: p50/p99/max = {}/{}/{}  ({} flows)",
                    Ns(t.fct.0),
                    Ns(t.fct.1),
                    Ns(t.fct.2),
                    t.fct_count
                ),
            );
        }
        None => frame.put(0, 3, " no transport stats ingested"),
    }
    frame.put(0, 8, " ECMP UPLINK SPREAD");
    if snap.uplinks.is_empty() {
        frame.put(0, 9, "  (no uplink counters ingested)");
    } else {
        frame.put(0, 9, "  SWITCH    PORT   TX_FRAMES  SHARE");
        let avail = frame.height().saturating_sub(11);
        for (r, u) in snap.uplinks.iter().take(avail).enumerate() {
            let mut line = frame.at(0, 10 + r);
            let _ = write!(
                line,
                "  0x{:<6x} {:>5} {:>11}  {:>4}‰ ",
                u.switch_id, u.port, u.tx_frames, u.share_permille
            );
            for _ in 0..u.share_permille / 25 {
                let _ = line.write_char('#');
            }
        }
    }
}

fn tab_paths(frame: &mut FrameBuf, snap: &FleetSnapshot, _state: &DashState) {
    frame.put(
        0,
        3,
        " PATH  HEALTH    PROBES   ECHOES   LOST  TRANS   QEWMA p50/p99/max      UTIL p50/p99/max",
    );
    if snap.bond_paths.is_empty() {
        frame.put(0, 4, "  (no bonded paths ingested)");
    }
    for (r, p) in snap.bond_paths.iter().enumerate() {
        frame.put_fmt(
            0,
            4 + r,
            format_args!(
                " {:>4}  {:<8} {:>7} {:>8} {:>6} {:>6}   {:>5}/{:>5}/{:>5}     {:>4}/{:>4}/{:>4}",
                p.path,
                p.health.name(),
                p.probes.0,
                p.probes.1,
                p.probes.2,
                p.transitions,
                p.queue.0,
                p.queue.1,
                p.queue.2,
                p.util.0,
                p.util.1,
                p.util.2
            ),
        );
    }
    let y = 5 + snap.bond_paths.len();
    frame.put(0, y, " FLEET SERIES");
    for (r, (metric, w)) in snap.fleet_windows().enumerate() {
        frame.put_fmt(
            0,
            y + 1 + r,
            format_args!(
                "  {:<26} peak={:>8}  {}",
                metric,
                max_value(w),
                sparkline(w, 32)
            ),
        );
    }
}

/// Render one dashboard frame: a pure function of `(snap, state, width,
/// height)` — same inputs, same bytes. Lines are formatted straight into
/// the cell grid, so a frame costs three allocations: the grid, the
/// table's sort order and the returned text.
pub fn render_dashboard(
    snap: &FleetSnapshot,
    state: &DashState,
    width: usize,
    height: usize,
) -> String {
    let mut frame = FrameBuf::new(width, height);
    header(&mut frame, snap, state);
    match state.tab {
        Tab::Latency => tab_latency(&mut frame, snap, state),
        Tab::Queues => tab_queues(&mut frame, snap, state),
        Tab::Caches => tab_caches(&mut frame, snap, state),
        Tab::Transport => tab_transport(&mut frame, snap, state),
        Tab::Paths => tab_paths(&mut frame, snap, state),
    }
    footer(&mut frame);
    frame.render()
}

/// Side-by-side profile comparison of two recorded series dumps (e.g.
/// caches on vs off): per matched series, both peaks, the signed delta,
/// and both trends. Series present in only one dump still get a row —
/// a missing counterpart is a finding, not an error.
pub fn render_profile_diff(
    a: &[SeriesDump],
    b: &[SeriesDump],
    label_a: &str,
    label_b: &str,
    width: usize,
    height: usize,
) -> String {
    let mut frame = FrameBuf::new(width, height);
    frame.put(0, 0, &format!(" PROFILE DIFF   A={label_a}   B={label_b}"));
    frame.hline(1, '-');
    frame.put(
        0,
        2,
        " SERIES                                   A.peak    B.peak     delta  A-trend      B-trend",
    );

    let mut keys: Vec<_> = a.iter().chain(b.iter()).map(|d| d.key()).collect();
    keys.sort();
    keys.dedup();
    let avail = frame.height().saturating_sub(4);
    let shown = keys.len().min(avail);
    for (r, key) in keys.iter().take(shown).enumerate() {
        let da = a.iter().find(|d| d.key() == *key);
        let db = b.iter().find(|d| d.key() == *key);
        let name = match key.1 {
            Some(id) => format!("{}[0x{:02x}].{}", key.0, id, key.2),
            None => format!("{}.{}", key.0, key.2),
        };
        let pa = da.map(|d| d.max_value());
        let pb = db.map(|d| d.max_value());
        let delta = match (pa, pb) {
            (Some(x), Some(y)) => format!("{:+}", y as i64 - x as i64),
            _ => "n/a".to_string(),
        };
        let cell = |p: Option<u64>| p.map_or("-".to_string(), |v| v.to_string());
        let trend = |d: Option<&SeriesDump>| {
            d.map(|d| {
                let vals: Vec<u64> = d.points.iter().map(|&(_, v)| v).collect();
                spark_raw(&vals, 12)
            })
            .unwrap_or_else(|| "(absent)".to_string())
        };
        frame.put(
            0,
            3 + r,
            &format!(
                " {:<40} {:>8} {:>9} {:>9}  {:<12} {}",
                name,
                cell(pa),
                cell(pb),
                delta,
                trend(da),
                trend(db)
            ),
        );
    }
    if keys.len() > shown {
        frame.put(0, 3 + shown, &format!(" … (+{} more)", keys.len() - shown));
    }
    frame.put(
        0,
        frame.height().saturating_sub(1),
        " delta = B.peak - A.peak per series; trends scaled per-series",
    );
    frame.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{CollectorSummary, SwitchRow};
    use crate::window::WindowStore;

    fn tiny_snapshot() -> FleetSnapshot {
        let mut series = WindowStore::default();
        let points = [(0, 5), (150, 9), (320, 2)];
        series.fold("queue.max_bytes", &points, 100, &mut Vec::new());
        FleetSnapshot {
            t_ns: 2_500_000,
            num_hosts: 4,
            ticks: 125,
            window_ns: 100,
            switches: vec![SwitchRow {
                switch_id: 0x10,
                packets: 1234,
                sampled: 617,
                violations: 3,
                span: (120, 260, 300),
                hot: (1, 0, 9000),
                occupancy_bytes: 0,
                series: 0..1,
            }],
            series,
            fleet_series: 1..1,
            opcodes: vec![("LOAD", 99), ("PUSH", 41)],
            transport: None,
            uplinks: Vec::new(),
            bond_paths: Vec::new(),
            collector: CollectorSummary::default(),
        }
    }

    #[test]
    fn frame_shape_is_exact() {
        let snap = tiny_snapshot();
        let state = DashState::default();
        let text = render_dashboard(&snap, &state, 80, 12);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 12);
        assert!(lines.iter().all(|l| l.chars().count() == 80));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn rendering_is_pure() {
        let snap = tiny_snapshot();
        let state = DashState::default();
        let a = render_dashboard(&snap, &state, 120, 40);
        let b = render_dashboard(&snap, &state, 120, 40);
        assert_eq!(a, b);
    }

    #[test]
    fn tabs_change_body_not_shape() {
        let snap = tiny_snapshot();
        let mut state = DashState::default();
        let mut seen = Vec::new();
        for _ in 0..Tab::ALL.len() {
            let text = render_dashboard(&snap, &state, 100, 20);
            assert_eq!(text.lines().count(), 20);
            seen.push(text);
            state.apply_key('\t');
        }
        seen.dedup();
        assert_eq!(seen.len(), Tab::ALL.len(), "every tab renders distinctly");
        assert_eq!(state.tab, Tab::Latency, "tab cycle wraps");
    }

    #[test]
    fn keys_drive_state() {
        let mut st = DashState::default();
        assert!(st.apply_key('3'));
        assert_eq!(st.tab, Tab::Caches);
        assert!(st.apply_key('['));
        assert_eq!(st.tab, Tab::Queues);
        let w0 = st.window_ns();
        assert!(st.apply_key('w'));
        assert_ne!(st.window_ns(), w0);
        assert!(st.apply_key('s'));
        assert_eq!(st.sort, SortKey::Violations);
        assert!(st.apply_key('p'));
        assert!(st.paused);
        assert!(!st.apply_key('z'), "unknown key is ignored");
        assert!(st.apply_key('q'));
        assert!(st.quit);
    }

    #[test]
    fn sparklines_scale_and_clip() {
        assert_eq!(spark_raw(&[], 8), "");
        assert_eq!(spark_raw(&[0, 0], 8), "▁▁");
        let s = spark_raw(&[1, 4, 8], 8);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'), "max maps to the full block");
        assert_eq!(
            spark_raw(&[1, 2, 3, 4], 2).chars().count(),
            2,
            "keeps newest"
        );
    }

    #[test]
    fn clipping_never_widens_a_frame() {
        let mut f = FrameBuf::new(10, 2);
        f.put(6, 0, "0123456789");
        f.put(0, 5, "off-screen row");
        let text = f.render();
        assert_eq!(text, "      0123\n          \n");
    }

    #[test]
    fn profile_diff_pairs_and_reports_absences() {
        let dump = |id: Option<u32>, metric: &str, pts: &[(u64, u64)]| SeriesDump {
            scope: if id.is_some() { "switch" } else { "fleet" }.into(),
            switch_id: id,
            metric: metric.into(),
            stride: 1,
            offered: pts.len() as u64,
            points: pts.to_vec(),
        };
        let a = vec![
            dump(Some(0x10), "queue.max_bytes", &[(0, 100), (20, 300)]),
            dump(None, "fault.events_per_tick", &[(0, 1)]),
        ];
        let b = vec![dump(Some(0x10), "queue.max_bytes", &[(0, 80), (20, 120)])];
        let text = render_profile_diff(&a, &b, "cache-on", "cache-off", 120, 10);
        assert!(text.contains("A=cache-on"));
        assert!(text.contains("switch[0x10].queue.max_bytes"));
        assert!(text.contains("-180"), "delta = 120 - 300");
        assert!(text.contains("(absent)"), "unpaired series still listed");
        assert!(text.lines().all(|l| l.chars().count() == 120));
    }
}
