//! The paper's claims, reproduced: one function per experiment of
//! `EXPERIMENTS.md` (E1–E8, E11, E14, E15), each building its scenario
//! through the shared builders below and filling one [`Section`] of
//! `REPRO.json`. Every value is simulated (an integer, or the exact string
//! a table prints), so any shard count writes the same bytes, and
//! `tests/repro.rs` compares a fresh build with the committed file. Where
//! the paper gives a figure, the section holds it under a `paper_` key.

use tpp_apps::ndb::{missing_ids, NdbProbeSender, PathPolicy, TraceCollector, Violation};
use tpp_apps::rcpstar::{init_rate_registers, RcpStarConfig, RcpStarSender};
use tpp_apps::{detect_bursts, CounterTask, CounterWriteMode, MicroburstMonitor};
use tpp_asic::tcpu::cycles_for;
use tpp_asic::{Asic, AsicConfig, FlowAction, FlowMatch};
use tpp_control::NetworkController;
use tpp_host::{EchoReceiver, ProbeBuilder, DATA_ETHERTYPE};
use tpp_isa::{assemble, programs, Stat};
use tpp_netsim::{
    dumbbell, linear_chain, time, Dumbbell, DumbbellParams, HostApp, HostCtx, HostId,
    LinearChainParams, RunLimit, Simulator,
};
use tpp_rcp_ref::aimd::{AimdAcker, AimdConfig, AimdSender};
use tpp_rcp_ref::dctcp::{DctcpConfig, DctcpReceiver, DctcpSender};
use tpp_rcp_ref::fluid::mean_r_over_c;
use tpp_rcp_ref::{FlowSchedule, NativeRcpRouter, RcpFluidSim, RcpParams};
use tpp_telemetry::{SharedSink, TraceEvent};
use tpp_wire::ethernet::{build_frame, EtherType, ETHERNET_HEADER_LEN};
use tpp_wire::tpp::{AddressingMode, TppBuilder, TppPacket, TPP_HEADER_LEN, WORD_SIZE};
use tpp_wire::EthernetAddress;

use crate::json::Json;
use crate::traffic::percentile;
use crate::{format_table, mean};

/// One experiment's result.
#[derive(Default)]
pub struct Section {
    /// Experiment key, `e1` … `e15`.
    pub key: &'static str,
    /// What the experiment reproduces.
    pub title: &'static str,
    /// Pipeline trace events; empty unless the run was traced.
    pub trace: Vec<TraceEvent>,
    tracing: bool,
    fields: Vec<(&'static str, Field)>,
}

/// A section entry: one value, or rows under `;`-separated column names.
enum Field {
    Value(Json),
    Table(&'static str, Vec<Vec<Json>>),
}

impl Section {
    /// The section for people: each value as `key: value`, each table laid out.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, field) in &self.fields {
            match field {
                Field::Value(value) => out += &format!("{key}: {}\n", show(value)),
                Field::Table(columns, rows) => {
                    let heads: Vec<&str> = columns.split(';').collect();
                    let cells = rows.iter().map(|row| row.iter().map(show).collect());
                    let table = format_table(&heads, &cells.collect::<Vec<_>>());
                    out += &format!("\n{key}:\n{table}");
                }
            }
        }
        out
    }

    /// The section as `REPRO.json` holds it: each table row an object keyed by column.
    fn json(&self) -> Json {
        let field = |field: &Field| match field {
            Field::Value(value) => value.clone(),
            Field::Table(columns, rows) => {
                let row = |row: &Vec<Json>| columns.split(';').map(String::from).zip(row.clone());
                Json::Arr(rows.iter().map(|r| Json::Obj(row(r).collect())).collect())
            }
        };
        let fields = self.fields.iter().map(|(k, f)| (k.to_string(), field(f)));
        Json::Obj(fields.collect())
    }

    fn put(&mut self, key: &'static str, value: impl Cell) {
        self.fields.push((key, Field::Value(value.cell())));
    }

    /// Add table `key` under `;`-separated `columns`; push its rows into the result.
    fn table(&mut self, key: &'static str, columns: &'static str) -> &mut Vec<Vec<Json>> {
        self.fields.push((key, Field::Table(columns, Vec::new())));
        match self.fields.last_mut() {
            Some((_, Field::Table(_, rows))) => rows,
            _ => unreachable!("a table was just pushed"),
        }
    }
}

fn show(cell: &Json) -> String {
    match cell {
        Json::Str(s) => s.clone(),
        other => other.pretty().trim_end().to_string(),
    }
}

/// A value `REPRO.json` holds.
trait Cell {
    fn cell(self) -> Json;
}

macro_rules! cells {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {
        $(impl Cell for $t { fn cell(self) -> Json { let $v = self; $e } })*
    };
}

cells! {
    Json => |v| v,
    &str => |v| Json::Str(v.to_string()),
    String => |v| Json::Str(v),
    u32 => |v| Json::Num(v.into()),
    u64 => |v| Json::Num(v),
    usize => |v| Json::Num(v as u64),
}

impl<T: Cell> Cell for Vec<T> {
    fn cell(self) -> Json {
        Json::Arr(self.into_iter().map(Cell::cell).collect())
    }
}

/// One table row, each value converted by [`Cell`].
macro_rules! row {
    ($($x:expr),* $(,)?) => { vec![$(Cell::cell($x)),*] };
}

/// `x` to `places` decimals, as an integer count of `10^-places`.
fn scaled(x: f64, places: usize) -> u64 {
    let digits = format!("{x:.places$}").replace('.', "");
    digits.parse().expect("finite and non-negative")
}

/// `T::default()` with `edit` applied.
fn with<T: Default>(edit: impl FnOnce(&mut T)) -> T {
    let mut value = T::default();
    edit(&mut value);
    value
}

type Experiment = (&'static str, &'static str, fn(&mut Section));

/// Every experiment in `REPRO.json` order: key, title, builder.
pub const EXPERIMENTS: [Experiment; 11] = [
    ("e1", "Figure 1: PUSH [Queue:QueueSize] over 3 hops", e1),
    ("e2", "Figure 2: RCP vs RCP* convergence, R(t)/C", e2),
    ("e3", "Table 1, live: switch 0xb0b, Scratch[0] = 7", e3),
    ("e4", "Table 2: statistics namespaces, one live TPP", e4),
    ("e5", "§3.3 overheads", e5),
    ("e6", "§2.1 micro-burst detection", e6),
    ("e7", "§2.3 ndb forwarding-plane debugger", e7),
    ("e8", "§3.2.3 CSTORE consistency", e8),
    ("e11", "§4 fixed-function signals vs TPPs", e11),
    ("e14", "RCP* ablation: 2 flows, R/C over 6-10 s", e14),
    ("e15", "§1 flow completion times", e15),
];

/// Run experiment `key` (`None` if unknown); `tracing` keeps e6 and e7's pipeline trace.
pub fn run(key: &str, tracing: bool) -> Option<Section> {
    let &(key, title, build) = EXPERIMENTS.iter().find(|e| e.0 == key)?;
    let mut section = with(|s: &mut Section| (s.key, s.title, s.tracing) = (key, title, tracing));
    build(&mut section);
    Some(section)
}

/// The `REPRO.json` document: one object per section, keyed by experiment.
pub fn document(sections: &[Section]) -> String {
    let fields = sections.iter().map(|s| (s.key.to_string(), s.json()));
    Json::Obj(fields.collect()).pretty()
}

/// `params`' dumbbell with `n` pairs: `sender(i, receiver i's MAC)` to an `R::default()`.
fn dumbbell_pairs<S: HostApp, R: HostApp + Default>(
    mut params: DumbbellParams,
    n: usize,
    mut sender: impl FnMut(usize, EthernetAddress) -> S,
) -> (Simulator, Dumbbell) {
    let mut apps: Vec<(Box<dyn HostApp>, Box<dyn HostApp>)> = Vec::new();
    for i in 0..n {
        let dst = EthernetAddress::from_host_id((2 * i + 1) as u32);
        apps.push((Box::new(sender(i, dst)), Box::new(R::default())));
    }
    params.n_pairs = n;
    dumbbell(params, apps)
}

/// The apps on `hosts`, as `T`.
fn apps<'a, T: HostApp>(sim: &'a Simulator, hosts: &'a [HostId]) -> impl Iterator<Item = &'a T> {
    hosts.iter().map(|&h| sim.host_app::<T>(h))
}

/// An RCP\* sender per entry of `flows`, echo receivers, rate registers on both switches.
pub fn rcp_dumbbell(params: DumbbellParams, flows: &[RcpStarConfig]) -> (Simulator, Dumbbell) {
    let sender = |i: usize, dst| RcpStarSender::new(dst, flows[i]);
    let (mut sim, bell) = dumbbell_pairs::<_, EchoReceiver>(params, flows.len(), sender);
    for sw in [bell.left, bell.right] {
        init_rate_registers(sim.switch_mut(sw));
    }
    (sim, bell)
}

/// Run `sim` to `until_ns` with the RCP law in the switches, not the end-hosts: one
/// [`NativeRcpRouter`] per switch, stepped every 10 ms (the firmware timer).
pub fn run_native_rcp(sim: &mut Simulator, bell: &Dumbbell, until_ns: u64) {
    let mut routers = [bell.left, bell.right].map(|sw| {
        let ports = sim.switch(sw).num_ports();
        (sw, NativeRcpRouter::paper_defaults(ports, 0.05, 0.01))
    });
    let mut t = 0;
    while t < until_ns {
        t += time::millis(10);
        sim.run(RunLimit::Until(t));
        for (sw, router) in &mut routers {
            router.step(sim.switch_mut(*sw), t);
        }
    }
}

/// Fires `bursts` bursts of 14 1,400-byte frames (~20 KB) at `victim`, one every 2 ms.
struct Burster {
    victim: EthernetAddress,
    bursts: u32,
}

impl HostApp for Burster {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        for k in 1..=self.bursts as u64 {
            ctx.set_timer(k * time::millis(2), 0);
        }
    }
    fn on_timer(&mut self, _t: u64, ctx: &mut HostCtx<'_>) {
        for _ in 0..14 {
            let frame = build_frame(self.victim, ctx.mac(), DATA_ETHERTYPE, &[0; 1400]);
            ctx.send(frame);
        }
    }
}

/// §2.1's dumbbell (100 Mb/s bottleneck, 1 Gb/s edges): pair 0 fires `bursts` ~20 KB
/// bursts every 2 ms, each draining in ~1.6 ms; pair 1's sender is the TPP monitor,
/// probing every 53 µs (co-prime with the burst period) until `monitor_stop_ns`.
pub fn burst_dumbbell(bursts: u32, monitor_stop_ns: u64) -> (Simulator, Dumbbell) {
    let [victim, watched] = [1, 3].map(EthernetAddress::from_host_id);
    let burster = Burster { victim, bursts };
    let monitor = MicroburstMonitor::new(watched, 2, time::micros(53), 0, monitor_stop_ns);
    let apps: Vec<(Box<dyn HostApp>, Box<dyn HostApp>)> = vec![
        (Box::new(burster), Box::<EchoReceiver>::default()),
        (Box::new(monitor), Box::<EchoReceiver>::default()),
    ];
    let params = with(|p: &mut DumbbellParams| {
        (p.n_pairs, p.bottleneck_kbps) = (2, 100_000);
        (p.edge_kbps, p.host_nic_kbps) = (1_000_000, 1_000_000);
    });
    dumbbell(params, apps)
}

/// A standalone switch `id` with host 1 routed out of port 1.
fn switch(id: u32) -> Asic {
    let mut asic = Asic::new(AsicConfig::with_ports(id, 2));
    asic.l2_mut().insert(EthernetAddress::from_host_id(1), 1);
    asic
}

/// A frame from host 0 to host 1 with `payload` as `ethertype`.
fn frame(ethertype: EtherType, payload: &[u8]) -> Vec<u8> {
    let [dst, src] = [1, 0].map(EthernetAddress::from_host_id);
    build_frame(dst, src, ethertype, payload)
}

/// A stack-mode TPP running `src` over packet memory `memory`.
fn tpp_frame(src: &str, memory: &[u32]) -> Vec<u8> {
    let words = assemble(src).unwrap().encode_words().unwrap();
    let tpp = TppBuilder::new(AddressingMode::Stack).instructions(&words);
    frame(EtherType::TPP, &tpp.memory_init(memory).build())
}

fn tpp_of(frame: &[u8]) -> TppPacket<&[u8]> {
    TppPacket::new_checked(&frame[ETHERNET_HEADER_LEN..]).expect("a TPP frame")
}

/// Send a TPP through `asic` from port 0: whether it completed, and the frame that leaves.
fn execute(asic: &mut Asic, frame: Vec<u8>, now_ns: u64) -> (bool, Vec<u8>) {
    let outcome = asic.handle_frame(frame, 0, now_ns);
    let completed = outcome.exec_report().expect("TPP executed").completed();
    let port = outcome.egress().expect("forwarded").0;
    let out = std::iter::from_fn(|| asic.dequeue(port)).last();
    (completed, out.expect("probe queued"))
}

const C_BPS: f64 = 10e6;

fn e1(s: &mut Section) {
    let sink = SharedSink::new(4096);
    let hop = |at: String, bytes: &[u8]| {
        let tpp = tpp_of(bytes);
        row![at, bytes.len(), tpp.sp(), tpp.memory_words()]
    };
    let mut probe = tpp_frame("PUSH [Queue:QueueSize]", &[0; 3]);
    let rows = s.table("hops", "at;frame bytes;SP;packet memory");
    rows.push(hop("end-host emits".into(), &probe));
    // Three switches whose egress backlogs are the figure's annotations.
    for (i, backlog) in [(1, 0x00), (2, 0xa0), (3, 0x0e)] {
        let mut asic = switch(i);
        asic.set_trace_sink(Some(Box::new(sink.clone())));
        if backlog > 0 {
            let filler = frame(DATA_ETHERTYPE, &vec![0; backlog - 14]);
            assert!(asic.handle_frame(filler, 0, 0).is_enqueued());
        }
        let (completed, out) = execute(&mut asic, probe, 1_000 * i as u64);
        assert!(completed);
        probe = out;
        rows.push(hop(format!("after switch {i} (q={backlog:#04x})"), &probe));
    }
    s.put("paper_memory", vec![0x00u32, 0xa0, 0x0e]);
    s.put("memory", tpp_of(&probe).memory_words());
    s.trace = sink.events();
}

fn e2(s: &mut Section) {
    let (starts, run_s) = ([0, 10, 20], 30);
    let flows = starts.iter().map(|&t| FlowSchedule::starting_at(t as f64));
    let params = RcpParams::paper_defaults(C_BPS, 0.05);
    let fluid = RcpFluidSim::new(params, flows.collect()).run(run_s as f64);
    // The same flows on the packet simulator, the law in the switches or the end-hosts.
    let [native, star] = [true, false].map(|native| {
        let flows = starts.map(|t| {
            with(|c: &mut RcpStarConfig| (c.start_ns, c.compute_updates) = (time::secs(t), !native))
        });
        let (mut sim, bell) = rcp_dumbbell(DumbbellParams::default(), &flows);
        match native {
            true => run_native_rcp(&mut sim, &bell, time::secs(run_s)),
            false => sim.run(RunLimit::Until(time::secs(run_s))),
        }
        let sender = sim.host_app::<RcpStarSender>(bell.senders[0]);
        sender.rate_trace.clone()
    });
    // Flow 0's mean R/C over [lo, hi) s: fluid, native, RCP*.
    let window = |lo: f64, hi: f64| {
        let span = lo * 1e9..hi * 1e9;
        let rate = |trace: &[(u64, u64)]| {
            let within = trace.iter().filter(|(t, _)| span.contains(&(*t as f64)));
            mean(within.map(|(_, r)| *r as f64 / C_BPS))
        };
        [mean_r_over_c(&fluid, lo, hi), rate(&native), rate(&star)]
    };
    // The figure: per 0.5 s bucket, in basis points (1/10,000) of C.
    let starts = (0..run_s * 2).map(|b| b as f64 * 0.5);
    let buckets: Vec<_> = starts.map(|lo| window(lo, lo + 0.5)).collect();
    for (i, key) in ["fluid_bp", "native_bp", "star_bp"].into_iter().enumerate() {
        let col: Vec<u64> = buckets.iter().map(|w| scaled(w[i], 4)).collect();
        s.put(key, col);
    }
    let windows = [
        ("1 flow (5-10 s)", 5.0, 1.0),
        ("2 flows (15-20 s)", 15.0, 0.5),
        ("3 flows (25-30 s)", 25.0, 1.0 / 3.0),
    ];
    let heads = "window;ideal R/C;RCP (fluid sim);RCP (native router);RCP* (TPP+endhost)";
    let rows = s.table("settled_windows", heads);
    for (label, lo, ideal) in windows {
        let [f, n, r] = window(lo, lo + 5.0).map(|r| format!("{r:.3}"));
        rows.push(row![label, format!("{ideal:.3}"), f, n, r]);
    }
}

/// Run `src` over packet memory `init` on switch 0xb0b with `Switch:Scratch[0]` = 7:
/// the memory and Scratch\[0\] after, and whether it completed.
fn exec_on_switch(src: &str, init: &[u32]) -> (Vec<u32>, u32, bool) {
    let mut asic = switch(0xb0b);
    asic.global_sram_mut().set_word(0, 7).unwrap();
    let (completed, out) = execute(&mut asic, tpp_frame(src, init), 0);
    let memory = tpp_of(&out).memory_words();
    (memory, asic.global_sram().word(0).unwrap(), completed)
}

fn e3(s: &mut Section) {
    let (mem, _, _) = exec_on_switch("PUSH [Switch:SwitchID]", &[0, 0]);
    let (_, stored, _) = exec_on_switch("STORE [Switch:Scratch[0]], [Packet:0]", &[42, 0]);
    let swap = "CSTORE [Switch:Scratch[0]], [Packet:0]";
    let (mem_ok, sram_ok, _) = exec_on_switch(swap, &[7, 99, 0]);
    let (mem_no, sram_no, _) = exec_on_switch(swap, &[5, 99, 0]);
    let (old_ok, old_no) = (mem_ok[2], mem_no[2]);
    let guard = "CEXEC [Switch:SwitchID], [Packet:0]\nSTORE [Switch:Scratch[0]], [Packet:2]";
    let (_, sram_hit, c1) = exec_on_switch(guard, &[0xffff_ffff, 0xb0b, 1234]);
    let (_, sram_miss, c2) = exec_on_switch(guard, &[0xffff_ffff, 0xeee, 1234]);
    let kept = format!("cond!=old: kept {sram_no}, old={old_no}");
    let miss = format!("id mismatch: ran-to-end={c2}, Scratch[0]={sram_miss}");
    let demos = [
        format!("PUSH [Switch:SwitchID] -> mem {mem:x?}"),
        format!("STORE 42 -> Scratch[0] == {stored}"),
        format!("cond==old(7): stored {sram_ok}, old={old_ok} | {kept}"),
        format!("id match: ran={c1}, Scratch[0]={sram_hit} | {miss}"),
    ];
    let ops = [
        ("LOAD, PUSH", "Copy values from switch to packet"),
        ("STORE, POP", "Copy values from packet to switch"),
        ("CSTORE", "Conditional store for atomic operations"),
        ("CEXEC", "Conditionally execute the subsequent instructions"),
    ];
    let rows = ops.into_iter().zip(demos);
    let rows = rows.map(|((op, meaning), demo)| row![op, meaning, demo]);
    let heads = "Instruction;Meaning (Table 1);live demonstration";
    s.table("instructions", heads).extend(rows);
    // §1's "simple arithmetic", one cycle each.
    let rows = s.table("extension_ops", "program;result");
    for (a, b, op) in [(6, 3, "ADD"), (6, 3, "SUB"), (12, 10, "AND"), (12, 3, "OR")] {
        let (mem, _, _) = exec_on_switch(&format!("PUSHI {a}\nPUSHI {b}\n{op}"), &[0; 3]);
        rows.push(row![format!("PUSHI {a}; PUSHI {b}; {op}"), mem[0]]);
    }
}

fn e4(s: &mut Section) {
    // A switch with visible state: id 0x42, a frame queued, a link SRAM word set.
    let mut asic = switch(0x42);
    asic.link_sram_mut(1).unwrap().set_word(0, 10_000).unwrap();
    asic.handle_frame(frame(DATA_ETHERTYPE, &[0; 100]), 0, 0);
    let stats = [
        ("Per-Switch", "Switch:SwitchID", "0x42"),
        ("Per-Switch", "Switch:FlowTableVersion", "0"),
        ("Per-Port", "Link:RX-Bytes", "114 (filler) + probe"),
        ("Per-Port", "Link:CapacityKbps", "10000000 (10 Gb/s)"),
        ("Per-Queue", "Queue:QueueSize", "114 (filler queued)"),
        ("Per-Queue", "Queue:BytesEnqueued", "114"),
        ("Per-Packet", "PacketMetadata:InputPort", "0"),
        ("Per-Packet", "PacketMetadata:PacketLength", "110 (probe)"),
        ("Per-Link SRAM", "Link:Scratch[0]", "10000 (preset)"),
        ("Global SRAM", "Switch:Scratch[0]", "0"),
    ];
    let program: Vec<String> = stats.iter().map(|st| format!("PUSH [{}]", st.1)).collect();
    let probe = tpp_frame(&program.join("\n"), &[0; 10]);
    let (completed, out) = execute(&mut asic, probe, 0);
    assert!(completed);
    let words = tpp_of(&out).stack_words();
    let rows = s.table("reads", "Namespace;Statistic;TPP read;expected");
    for ((namespace, stat, expect), got) in stats.into_iter().zip(words) {
        rows.push(row![namespace, stat, got, expect]);
    }
    // The full map of named statistics is `tppasm symbols`.
    s.put("named_statistics", Stat::ALL.len());
}

fn e5(s: &mut Section) {
    // Instruction overhead, measured by building packets.
    let heads = "instructions;insn bytes;header bytes;TPP bytes;TCPU cycles";
    let rows = s.table("encoding", heads);
    for n in [1, 3, 5, 8, 16] {
        let frame = tpp_frame(&"NOP\n".repeat(n), &[]);
        let (tpp, cycles) = (tpp_of(&frame), cycles_for(n as u32));
        let (insn, len) = (tpp.insn_len(), tpp.tpp_len());
        rows.push(row![n, insn, TPP_HEADER_LEN, len, cycles]);
    }
    s.put("paper_insn_bytes_5", 20u32);
    s.put("insn_bytes_5", 5 * WORD_SIZE);
    s.put("paper_hop_bytes_5x8", 40u32);
    s.put("hop_bytes_5x8", 5 * 2 * WORD_SIZE);
    // Line rate: 64 ports of 10 GbE, minimum frames (64 B + 20 B IFG).
    s.put("paper_pps", 1_000_000_000u64);
    s.put("pps_64x10g", 64 * 10_000_000_000u64 / ((64 + 20) * 8));
    // A 300 ns cut-through at 1 GHz.
    let budget = 300;
    s.put("paper_budget_cycles", budget);
    let rows = s.table("budget", "instructions;cycles;% of budget;verdict");
    for n in [1, 5, 16, 64] {
        let c = cycles_for(n);
        let share = format!("{:.1}%", 100.0 * c as f64 / budget as f64);
        let verdict = if c <= budget { "fits" } else { "exceeds" };
        rows.push(row![n, c, share, verdict]);
    }
    // A 1 GHz TCPU: one cycle, one ns.
    let exec = cycles_for(5) as u64;
    let rows = s.table("exec_vs_tx", "packet;tx time;5-instr exec;verdict");
    for (size, kbps) in [(64, 10_000_000), (64, 1_000_000), (1514, 10_000_000)] {
        let tx = time::tx_time_ns(size, kbps);
        let verdict = if exec <= tx { "pipelineable" } else { "stalls" };
        let packet = format!("{size} B @ {} Gb/s", kbps / 1_000_000);
        let [tx, exec] = [tx, exec].map(|ns| format!("{ns} ns"));
        rows.push(row![packet, tx, exec, verdict]);
    }
}

fn e6(s: &mut Section) {
    let (bursts, run_ms, threshold) = (40, 90, 5_000);
    s.put("bursts", bursts);
    s.put("run_ms", run_ms);
    s.put("threshold_bytes", threshold);
    let (mut sim, bell) = burst_dumbbell(bursts, time::millis(run_ms));
    // A bounded ring: this run processes hundreds of thousands of frames.
    let sink = s.tracing.then(|| sim.observe().trace_all(65_536));
    // Ground truth: the bottleneck queue every 10 µs.
    let (mut truth, port) = (Vec::new(), bell.bottleneck_port);
    for t in (1..=run_ms * 100).map(|i| i * time::micros(10)) {
        sim.run(RunLimit::Until(t));
        truth.push((t, sim.switch(bell.left).queue_len_bytes(port, 0)));
    }
    let monitor = sim.host_app::<MicroburstMonitor>(bell.senders[1]);
    let tpp = monitor.series_for(1); // switch 1 owns the bottleneck
    let fine = time::micros(300);
    // Bursts closer than `gap` merge: `fine` for fine observers, two polls for pollers.
    let observe = |name, interval, samples: &[(u64, u64)], gap| {
        let found = detect_bursts(samples, threshold, gap).len();
        row![name, interval, samples.len(), found]
    };
    let rows = s.table("observers", "observer;interval;samples;bursts detected");
    rows.push(observe("ground truth (oracle)", "10 µs", &truth, fine));
    rows.push(observe("TPP monitor (§2.1)", "53 µs/probe", &tpp, fine));
    // Control-plane pollers read the same queue at their own period.
    let pollers = [
        ("poll 1 ms", "1 ms", time::millis(1)),
        ("poll 10 ms", "10 ms", time::millis(10)),
        ("poll 100 ms", "100 ms", time::millis(100)),
        ("poll 10 s (paper's 'today')", "10000 ms", time::secs(10)),
    ];
    for (name, interval, every) in pollers {
        let polled = truth.iter().filter(|(t, _)| t % every == 0);
        let polled: Vec<_> = polled.copied().collect();
        rows.push(observe(name, interval, &polled, 2 * every));
    }
    let found = detect_bursts(&tpp, threshold, fine).into_iter().take(5);
    let rows = found.map(|b| row![b.start_ns, b.end_ns, b.peak_bytes]);
    s.table("first_tpp_bursts", "start_ns;end_ns;peak_bytes")
        .extend(rows);
    // The monitor's own probe (2 hops, 8-byte stamp) on the 100 Mb/s link.
    let probe = ProbeBuilder::stack(&programs::microburst_collect(), 2).frame_len(8) as u64;
    let bytes = monitor.probes_sent * probe;
    let link_bytes = 100_000_000 / 8 * run_ms / 1_000;
    s.put("probes", monitor.probes_sent);
    s.put("probe_frame_bytes", probe);
    s.put("probe_bytes", bytes);
    let permille = (bytes * 1_000 + link_bytes / 2) / link_bytes;
    s.put("overhead_permille", permille);
    s.trace = sink.map(|sink| sink.events()).unwrap_or_default();
}

const NDB_SWITCHES: usize = 5;

type NdbRun = (Vec<Violation>, usize, usize, Vec<TraceEvent>);

/// §2.3's chain: 25 ndb probes across five switches, each forwarding by one controller
/// rule that `fault` stales (`false`) or black-holes (`true`) at a position. Returns the
/// violations, traces and missing packets after 20 ms, and the trace when `tracing`.
fn ndb_run(fault: Option<(bool, usize)>, tracing: bool) -> NdbRun {
    let mut controller = NetworkController::new();
    let dst = EthernetAddress::from_host_id(1);
    let prober = NdbProbeSender::new(dst, NDB_SWITCHES, time::micros(50), 25);
    let params = with(|p: &mut LinearChainParams| p.n_switches = NDB_SWITCHES);
    let collector = Box::<TraceCollector>::default();
    let (mut sim, chain) = linear_chain(params, Box::new(prober), collector);
    let to_dst = with(|m: &mut FlowMatch| m.dst_mac = Some(dst));
    let entry = controller.new_entry_id();
    for &sw in &chain.switches {
        let forward = FlowAction::Forward(1);
        controller.install_rule(sim.switch_mut(sw), entry, 10, to_dst, forward);
    }
    if let Some((black_hole, at)) = fault {
        let target = chain.switches[at];
        if black_hole {
            let bad = controller.new_entry_id();
            controller.install_rule(sim.switch_mut(target), bad, 20, to_dst, FlowAction::Drop);
        } else {
            controller.intend_version_only(sim.switch(target).switch_id(), entry);
        }
    }
    let sink = tracing.then(|| sim.observe().trace_all(65_536));
    sim.run(RunLimit::Until(time::millis(20)));
    let policy = PathPolicy {
        expected_path: (1..=NDB_SWITCHES as u32).collect(),
        expected_versions: controller.intended_versions_all(),
    };
    let traces = &sim.host_app::<TraceCollector>(chain.right).traces;
    let sent = &sim.host_app::<NdbProbeSender>(chain.left).sent_ids;
    let violations = traces.iter().flat_map(|t| policy.verify(t)).collect();
    let missing = missing_ids(sent, traces).len();
    let events = sink.map(|sink| sink.events()).unwrap_or_default();
    (violations, traces.len(), missing, events)
}

/// Whether `v` blames the stale rule of switch `id`.
fn blames(v: &Violation, id: usize) -> bool {
    matches!(v, Violation::StaleEntry { switch_id, .. } if *switch_id as usize == id)
}

fn e7(s: &mut Section) {
    let yes = |b: bool| if b { "yes" } else { "NO" };
    let rows = s.table("faults", "fault;injected at;detected;localized");
    for (name, black_hole) in [("stale rule", false), ("black hole", true)] {
        for at in 0..NDB_SWITCHES {
            let (found, _, missing, _) = ndb_run(Some((black_hole, at)), false);
            // A black hole exists from t = 0: only its detection is checked.
            let detected = if black_hole { missing } else { found.len() } > 0;
            let localized = detected && (black_hole || found.iter().all(|v| blames(v, at + 1)));
            let place = format!("switch {}", at + 1);
            rows.push(row![name, place, yes(detected), yes(localized)]);
        }
    }
    // No fault, no violations; with `--trace`, this run is captured.
    let (found, traces, _, events) = ndb_run(None, s.tracing);
    s.put("healthy_false_positives", found.len());
    s.put("healthy_traces", traces);
    s.trace = events;
}

fn e8(s: &mut Section) {
    const GOAL: u32 = 25;
    s.put("increments_per_host", GOAL);
    let params = with(|p: &mut DumbbellParams| p.bottleneck_kbps = 100_000);
    let modes = [
        ("racy (PUSH+STORE)", CounterWriteMode::Racy),
        ("CSTORE (linearizable)", CounterWriteMode::Linearizable),
    ];
    let heads = "writers;mode;expected;final value;lost;conflicts;round trips";
    let rows = s.table("counters", heads);
    for n in [1, 2, 3, 5] {
        for (label, mode) in modes {
            let task = |_, dst| CounterTask::new(dst, 1, 0, GOAL, mode);
            let (mut sim, bell) = dumbbell_pairs::<_, EchoReceiver>(params.clone(), n, task);
            sim.run(RunLimit::Until(time::secs(60)));
            let tasks: Vec<&CounterTask> = apps(&sim, &bell.senders).collect();
            assert!(tasks.iter().all(|t| t.done()), "task did not finish");
            let conflicts: u64 = tasks.iter().map(|t| t.conflicts).sum();
            let trips: u64 = tasks.iter().map(|t| t.round_trips).sum();
            let got = sim.switch(bell.left).global_sram().word(0).unwrap();
            let want = n as u32 * GOAL;
            let lost = want.saturating_sub(got);
            rows.push(row![n, label, want, got, lost, conflicts, trips]);
        }
    }
}

/// How many bytes host `h`'s receiver app has taken in.
type Received = fn(&Simulator, HostId) -> u64;

const E11_RUN_S: u64 = 8;

/// Run `net` for E11's 8 s and score it as one row: goodput (Mb/s), max/min
/// fairness, the bottleneck's high-water mark and drops.
fn score(name: &str, signal: &str, net: (Simulator, Dumbbell), received: Received) -> Vec<Json> {
    let (mut sim, bell) = net;
    sim.run(RunLimit::Until(time::secs(E11_RUN_S)));
    let bytes = bell.receivers.iter().map(|&r| received(&sim, r) as f64);
    let g: Vec<f64> = bytes.collect();
    let max = g.iter().cloned().fold(0.0, f64::max);
    let min = g.iter().cloned().fold(f64::INFINITY, f64::min);
    let (mbps, fair) = (
        g.iter().sum::<f64>() * 8.0 / E11_RUN_S as f64 / 1e6,
        max / min.max(1.0),
    );
    let [goodput, fair] = [mbps, fair].map(|x| format!("{x:.2}"));
    let queue = sim.switch(bell.left).queue_stats(bell.bottleneck_port, 0);
    let (hwm, drops) = (queue.high_watermark_bytes, queue.packets_dropped);
    row![name, signal, goodput, fair, hwm, drops]
}

fn e11(s: &mut Section) {
    let ecn_k = 15_000;
    let params = with(|p: &mut DumbbellParams| p.queue_limit_bytes = 60_000);
    s.put("run_s", E11_RUN_S);
    s.put("buffer_bytes", params.queue_limit_bytes);
    s.put("ecn_k_bytes", ecn_k);
    let aimd = |_, dst| AimdSender::new(dst, AimdConfig::default(), 0);
    let aimd = dumbbell_pairs::<_, AimdAcker>(params.clone(), 2, aimd);
    let dctcp = |_, dst| DctcpSender::new(dst, DctcpConfig::default(), 0);
    let (mut sim, bell) = dumbbell_pairs::<_, DctcpReceiver>(params.clone(), 2, dctcp);
    let (left, port) = (bell.left, bell.bottleneck_port);
    sim.switch_mut(left).set_ecn_threshold(port, Some(ecn_k));
    let rcp = rcp_dumbbell(params, &[RcpStarConfig::default(); 2]);
    let acked: Received = |sim, h| sim.host_app::<AimdAcker>(h).bytes;
    let marked: Received = |sim, h| sim.host_app::<DctcpReceiver>(h).bytes;
    let echoed: Received = |sim, h| sim.host_app::<EchoReceiver>(h).data_bytes;
    let heads = "system;dataplane signal;goodput Mb/s;max/min fair;queue hwm B;drops";
    s.table("systems", heads).extend([
        score("AIMD (TCP-like)", "loss only (0 bits)", aimd, acked),
        score("DCTCP-like", "ECN mark (1 bit)", (sim, bell), marked),
        score("RCP* (TPP)", "queue+counters+rate (5 words)", rcp, echoed),
    ]);
}

fn e14(s: &mut Section) {
    // Which choices each variant keeps: byte-counter y, gain normalization, step clamp.
    let variants = [
        ("full RCP* (all three)", [true; 3]),
        ("- byte-counter y (use util register)", [false, true, true]),
        ("- gain normalization", [true, false, true]),
        ("- step clamp", [true, true, false]),
        ("- all three", [false; 3]),
    ];
    let rows = s.table("variants", "variant;|mean R/C - 0.5|;R/C stddev;drops");
    for (name, keep) in variants {
        let flow = with(|c: &mut RcpStarConfig| {
            [c.y_from_byte_counter, c.gain_normalization, c.step_clamp] = keep
        });
        let (mut sim, bell) = rcp_dumbbell(DumbbellParams::default(), &[flow; 2]);
        sim.run(RunLimit::Until(time::secs(10)));
        // Flow 0's settled window.
        let trace = &sim.host_app::<RcpStarSender>(bell.senders[0]).rate_trace;
        let settled = trace.iter().filter(|(t, _)| *t >= time::secs(6));
        let window: Vec<f64> = settled.map(|(_, r)| *r as f64 / C_BPS).collect();
        let m = mean(window.iter().copied());
        let sd = mean(window.iter().map(|v| (v - m).powi(2))).sqrt();
        let [error, stddev] = [(m - 0.5).abs(), sd].map(|x| format!("{x:.3}"));
        let queue = sim.switch(bell.left).queue_stats(bell.bottleneck_port, 0);
        rows.push(row![name, error, stddev, queue.packets_dropped]);
    }
}

fn e15(s: &mut Section) {
    let (mouse, elephant) = (40_000, 1_500_000);
    // `(start_ns, bytes)` of 24 mice and 4 elephants (every 7th flow): Exp(mean 0.3 s)
    // gaps drawn on a deterministic golden-ratio sequence.
    let mut t = 0u64;
    let mut flows = Vec::new();
    for i in 0..28 {
        let u = ((i as f64 * 0.618_033_988_75) % 1.0).max(1e-3);
        t += (-(u.ln()) * 0.3 * 1e9) as u64;
        flows.push((t, if i % 7 == 0 { elephant } else { mouse }));
    }
    let until = RunLimit::Until(time::secs(40));
    let params = with(|p: &mut DumbbellParams| p.queue_limit_bytes = 60_000);
    let (mut sim, bell) = dumbbell_pairs::<_, AimdAcker>(params, flows.len(), |i, dst| {
        let cfg = with(|c: &mut AimdConfig| c.stop_after_bytes = Some(flows[i].1));
        AimdSender::new(dst, cfg, flows[i].0)
    });
    sim.run(until);
    let senders = apps::<AimdSender>(&sim, &bell.senders);
    let aimd: Vec<_> = senders.map(|a| a.completed_at).collect();
    let rcp = flows.iter().map(|&(start, bytes)| {
        with(|c: &mut RcpStarConfig| (c.start_ns, c.stop_after_bytes) = (start, Some(bytes)))
    });
    let (mut sim, bell) = rcp_dumbbell(DumbbellParams::default(), &rcp.collect::<Vec<_>>());
    sim.run(until);
    let senders = apps::<RcpStarSender>(&sim, &bell.senders);
    let rcp: Vec<_> = senders.map(|a| a.completed_at).collect();
    let heads = "system;class;mean FCT ms;p50 ms;p95 ms;finished;unfinished";
    let rows = s.table("fct", heads);
    for (name, done) in [("AIMD (loss-driven)", aimd), ("RCP* (TPP rates)", rcp)] {
        let unfinished = done.iter().filter(|d| d.is_none()).count();
        for (class, bytes) in [("mice", mouse), ("elephants", elephant)] {
            let class_done = flows.iter().zip(&done).filter(|((_, b), _)| *b == bytes);
            let ns = class_done.filter_map(|((start, _), end)| Some((*end)? - start));
            let mut fct: Vec<f64> = ns.map(|ns| ns as f64 / 1e6).collect();
            fct.sort_by(f64::total_cmp);
            let avg = scaled(fct.iter().sum::<f64>() / fct.len().max(1) as f64, 0);
            let [p50, p95] =
                [0.5, 0.95].map(|p| scaled(percentile(&fct, p).unwrap_or(f64::NAN), 0));
            rows.push(row![name, class, avg, p50, p95, fct.len(), unfinished]);
        }
    }
    // What each flow takes alone on the 10 Mb/s bottleneck.
    for (key, bytes) in [("lone_mouse_ms", mouse), ("lone_elephant_ms", elephant)] {
        s.put(key, scaled(bytes as f64 * 8.0 / C_BPS * 1e3, 0));
    }
}
