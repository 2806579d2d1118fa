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

use std::fmt::Write as _;

use crate::export::SeriesDump;
use crate::snapshot::{FleetSnapshot, SortKey};
use crate::window::{window_label, WindowedSeries, SIM_WINDOWS, WALL_WINDOWS};

/// Block glyphs for one-cell bars, shallowest to fullest.
pub const SPARK_GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Scale raw values into block glyphs against their own maximum; an
/// all-zero series renders as a flat floor. Values beyond `width` are
/// dropped from the left (newest stay).
pub(crate) fn spark_raw(values: &[u64], width: usize) -> String {
    let start = values.len().saturating_sub(width);
    let vals = &values[start..];
    let max = vals.iter().copied().max().unwrap_or(0);
    vals.iter()
        .map(|&v| {
            let level = (v * 7).checked_div(max).unwrap_or(0);
            SPARK_GLYPHS[level as usize]
        })
        .collect()
}

/// Sparkline over a windowed series: one glyph per window (the window
/// *max* — peaks are what a dashboard must not smooth away).
pub(crate) fn sparkline(series: &WindowedSeries, width: usize) -> String {
    spark_raw(&series.spark_values(width), width)
}

/// A fixed-size character grid. Writes clip at the edges, so layout
/// bugs degrade to truncation instead of frame-size drift.
#[derive(Debug, Clone)]
pub struct FrameBuf {
    width: usize,
    height: usize,
    cells: Vec<char>,
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
        if y >= self.height {
            return;
        }
        for (i, ch) in text.chars().enumerate() {
            let cx = x + i;
            if cx >= self.width {
                break;
            }
            self.cells[y * self.width + cx] = ch;
        }
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
    /// newline-terminated.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity((self.width + 1) * self.height);
        for y in 0..self.height {
            out.extend(&self.cells[y * self.width..(y + 1) * self.width]);
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

fn fmt_ns(t_ns: u64) -> String {
    if t_ns >= 1_000_000_000 {
        format!(
            "{}.{:03}s",
            t_ns / 1_000_000_000,
            (t_ns % 1_000_000_000) / 1_000_000
        )
    } else if t_ns >= 1_000_000 {
        format!("{}.{:03}ms", t_ns / 1_000_000, (t_ns % 1_000_000) / 1_000)
    } else if t_ns >= 1_000 {
        format!("{}us", t_ns / 1_000)
    } else {
        format!("{t_ns}ns")
    }
}

fn header(frame: &mut FrameBuf, snap: &FleetSnapshot, state: &DashState) {
    let mut line = format!(
        " TPP FLEET  t={}  switches={}  hosts={}  ticks={}",
        fmt_ns(snap.t_ns),
        snap.switches.len(),
        snap.num_hosts,
        snap.ticks
    );
    if state.paused {
        line.push_str("  *PAUSED*");
    }
    frame.put(0, 0, &line);

    let mut tabs = String::from(" ");
    for (i, t) in Tab::ALL.iter().enumerate() {
        if *t == state.tab {
            let _ = write!(tabs, "[{}:{}] ", i + 1, t.title().to_uppercase());
        } else {
            let _ = write!(tabs, " {}:{}  ", i + 1, t.title());
        }
    }
    let _ = write!(
        tabs,
        "  window={}  sort={}",
        window_label(state.window_ns()),
        state.sort.label()
    );
    frame.put(0, 1, &tabs);
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

fn win_cell(series: Option<&WindowedSeries>) -> (u64, u64, u64) {
    series
        .and_then(|s| s.last())
        .map(|w| (w.min, w.sum / w.count.max(1), w.max))
        .unwrap_or((0, 0, 0))
}

fn put_switch_table<F: Fn(&FleetSnapshot, usize) -> String>(
    frame: &mut FrameBuf,
    snap: &FleetSnapshot,
    state: &DashState,
    head: &str,
    extra: usize,
    row: F,
) -> usize {
    frame.put(0, 3, head);
    let order = snap.sorted_switches(state.sort);
    let avail = body_rows(frame, extra);
    let shown = order.len().min(avail);
    for (r, &i) in order.iter().take(shown).enumerate() {
        let line = row(snap, i);
        frame.put(0, 4 + r, &line);
    }
    if order.len() > shown {
        frame.put(0, 4 + shown, &format!(" … (+{} more)", order.len() - shown));
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
        |s, i| {
            let r = &s.switches[i];
            format!(
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
    frame.put(
        0,
        y + 1,
        &format!(
            " collector: probes={} echoes={} samples={}  rtt p50/p99/max = {}/{}/{}",
            c.probes_sent,
            c.echoes_received,
            c.samples,
            fmt_ns(c.rtt.0),
            fmt_ns(c.rtt.1),
            fmt_ns(c.rtt.2)
        ),
    );
    frame.put(
        0,
        y + 2,
        &format!(
            " divergence vs ground truth: max {} bytes",
            c.divergence_max_bytes
        ),
    );
    let ops: Vec<String> = snap
        .opcodes
        .iter()
        .take(6)
        .map(|(m, n)| format!("{m}:{n}"))
        .collect();
    if !ops.is_empty() {
        frame.put(0, y + 3, &format!(" tcpu ops: {}", ops.join("  ")));
    }
}

fn tab_queues(frame: &mut FrameBuf, snap: &FleetSnapshot, state: &DashState) {
    put_switch_table(
        frame,
        snap,
        state,
        " SWITCH     HOT(p,q)     HOT_B   Qmax win min/mean/max      DROP/T  TREND(Qmax)",
        0,
        |s, i| {
            let r = &s.switches[i];
            let q = win_cell(r.windows.get("queue.max_bytes"));
            let d = win_cell(r.windows.get("drop.bytes_per_tick"));
            let spark = r
                .windows
                .get("queue.max_bytes")
                .map(|w| sparkline(w, 24))
                .unwrap_or_default();
            format!(
                " 0x{:<8x} ({:>2},{:>2}) {:>9}   {:>7}/{:>7}/{:>7} {:>9}  {spark}",
                r.switch_id, r.hot.0, r.hot.1, r.hot.2, q.0, q.1, q.2, d.2
            )
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
        |s, i| {
            let r = &s.switches[i];
            let d = win_cell(r.windows.get("cache.decode_hit_permille"));
            let ds = r
                .windows
                .get("cache.decode_hit_permille")
                .map(|w| sparkline(w, 12))
                .unwrap_or_default();
            format!(
                " 0x{:<8x} {:>4}/{:>4}/{:>4}          {ds}",
                r.switch_id, d.0, d.1, d.2
            )
        },
    );
}

fn tab_transport(frame: &mut FrameBuf, snap: &FleetSnapshot, _state: &DashState) {
    match &snap.transport {
        Some(t) => {
            let s = &t.stats;
            frame.put(
                0,
                3,
                &format!(
                    " flows: started={} completed={} gave_up={}   segments={} acks={}",
                    s.flows_started,
                    s.flows_completed,
                    s.flows_given_up,
                    s.segments_sent,
                    s.acks_sent
                ),
            );
            frame.put(
                0,
                4,
                &format!(
                    " loss recovery: retransmits={} rto_fires={} fast_rtx={} dup_rx={} max_backoff={}",
                    s.retransmits, s.rto_fires, s.fast_retransmits, s.dup_segments_rx,
                    s.max_backoff
                ),
            );
            frame.put(
                0,
                5,
                &format!(
                    " rate control: probes={} rate_updates={} rate_limited_polls={} epoch_resets={}",
                    s.probes_sent, s.rate_updates, s.rate_limited_polls, s.epoch_resets
                ),
            );
            frame.put(
                0,
                6,
                &format!(
                    " fct: p50/p99/max = {}/{}/{}  ({} flows)",
                    fmt_ns(t.fct.0),
                    fmt_ns(t.fct.1),
                    fmt_ns(t.fct.2),
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
            let bar: String = "#".repeat((u.share_permille / 25) as usize);
            frame.put(
                0,
                10 + r,
                &format!(
                    "  0x{:<6x} {:>5} {:>11}  {:>4}‰ {bar}",
                    u.switch_id, u.port, u.tx_frames, u.share_permille
                ),
            );
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
        frame.put(
            0,
            4 + r,
            &format!(
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
    for (r, (metric, w)) in snap.fleet_windows.iter().enumerate() {
        frame.put(
            0,
            y + 1 + r,
            &format!(
                "  {:<26} peak={:>8}  {}",
                metric,
                w.max_value(),
                sparkline(w, 32)
            ),
        );
    }
}

/// Render one dashboard frame: a pure function of `(snap, state, width,
/// height)` — same inputs, same bytes.
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
    use std::collections::BTreeMap;

    fn tiny_snapshot() -> FleetSnapshot {
        let mut windows = BTreeMap::new();
        windows.insert(
            "queue.max_bytes",
            WindowedSeries::from_points(&[(0, 5), (150, 9), (320, 2)], 100),
        );
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
                windows,
            }],
            fleet_windows: BTreeMap::new(),
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
