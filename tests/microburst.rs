//! E6 / §2.1 — TPP per-packet visibility catches micro-bursts that
//! coarse control-plane polling misses, asserted end to end.

use tpp::apps::{detect_bursts, MicroburstMonitor};
use tpp::host::EchoReceiver;
use tpp::netsim::RunLimit;
use tpp::netsim::{dumbbell_with, time, DumbbellParams, HostApp, SimConfig};
use tpp::wire::EthernetAddress;
use tpp_bench::repro::burst_dumbbell;

#[test]
fn tpp_monitor_finds_bursts_where_poller_sees_nothing() {
    // Dumbbell with a 100 Mb/s bottleneck; pair 0 bursts ~20 KB every
    // 2 ms, draining in ~1.6 ms, so bursts are isolated; pair 1's sender
    // is the TPP monitor, probing every 53 µs for 45 ms.
    let n_bursts = 20u32;
    let (mut sim, bell) = burst_dumbbell(&SimConfig::new(), n_bursts, time::millis(45));

    // Coarse poller at 10 ms (still far finer than the paper's "10s of
    // seconds" straw man) sampling ground truth.
    let mut polled: Vec<(u64, u64)> = Vec::new();
    let mut t = 0;
    while t < time::millis(50) {
        t += time::millis(10);
        sim.run(RunLimit::Until(t));
        polled.push((
            t,
            sim.switch(bell.left)
                .queue_len_bytes(bell.bottleneck_port, 0),
        ));
    }

    let monitor = sim.host_app::<MicroburstMonitor>(bell.senders[1]);
    assert!(monitor.probes_sent > 500);
    assert!(
        monitor.echoes_received as f64 > 0.8 * monitor.probes_sent as f64,
        "most probes should survive ({}/{})",
        monitor.echoes_received,
        monitor.probes_sent
    );

    // Switch 1 (the left switch) owns the bottleneck queue.
    let series = monitor.series_for(1);
    let threshold = 5_000;
    let bursts = detect_bursts(&series, threshold, time::micros(300));
    let polled_bursts = detect_bursts(&polled, threshold, time::millis(50));

    assert!(
        bursts.len() >= (n_bursts / 2) as usize,
        "TPP monitor found only {} of {} bursts",
        bursts.len(),
        n_bursts
    );
    assert!(
        polled_bursts.len() < bursts.len() / 2,
        "poller should miss most bursts: {} vs {}",
        polled_bursts.len(),
        bursts.len()
    );

    // The burst magnitudes the monitor reports are real byte counts of
    // the right order (20 KB bursts minus drainage).
    let peak = bursts.iter().map(|b| b.peak_bytes).max().unwrap();
    assert!(
        (8_000..=30_000).contains(&peak),
        "implausible peak {peak} for 20 KB bursts"
    );
}

#[test]
fn quiet_network_reports_no_bursts() {
    let apps: Vec<(Box<dyn HostApp>, Box<dyn HostApp>)> = vec![(
        Box::new(MicroburstMonitor::new(
            EthernetAddress::from_host_id(1),
            2,
            time::micros(100),
            0,
            time::millis(20),
        )),
        Box::new(EchoReceiver::default()),
    )];
    let (mut sim, bell) = dumbbell_with(SimConfig::new(), DumbbellParams::default(), apps);
    sim.run(RunLimit::Until(time::millis(25)));
    let monitor = sim.host_app::<MicroburstMonitor>(bell.senders[0]);
    for sid in monitor.switches_observed() {
        let bursts = detect_bursts(&monitor.series_for(sid), 1_000, time::micros(300));
        assert!(bursts.is_empty(), "phantom burst on switch {sid}");
    }
}
