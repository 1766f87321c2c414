//! L2 event tapes: every `L2Request → L2Response` and every L1D eviction
//! that crosses the [`SecondLevel`] boundary during one cell.
//!
//! A tape lets each side of the boundary be timed alone: [`Player`] stands
//! in for the L2 under a real `Hierarchy` (the L1 cost), and [`replay`]
//! drives a fresh L2 with the recorded events (the organization's cost).
//! Both report any disagreement with the recording, which is how the
//! traced run proves a tape is faithful before it trusts its timings.

use ldis_cache::{CacheHealth, L2Outcome, L2Request, L2Response, L2Stats, SecondLevel};
use ldis_mem::{Footprint, LineAddr, LineGeometry, SimRng};

/// One event at the L1/L2 boundary, in program order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A demand request and the L2's answer.
    Access(L2Request, L2Response),
    /// An L1D eviction notification.
    Evict {
        line: LineAddr,
        footprint: Footprint,
        dirty: bool,
    },
}

/// The recorded events of one cell.
pub type Tape = Vec<Event>;

/// Number of demand requests on a tape (the unit of L2 work).
pub fn requests(tape: &[Event]) -> u64 {
    tape.iter()
        .filter(|e| matches!(e, Event::Access(..)))
        .count() as u64
}

/// A transparent [`SecondLevel`] wrapper that forwards to the real L2 and
/// logs every event.
pub struct Recorder<L> {
    inner: L,
    tape: Tape,
}

impl<L: SecondLevel> Recorder<L> {
    pub fn new(inner: L) -> Self {
        Recorder {
            inner,
            tape: Vec::new(),
        }
    }

    /// Moves the recorded tape out, leaving an empty one.
    pub fn take_tape(&mut self) -> Tape {
        std::mem::take(&mut self.tape)
    }
}

impl<L: SecondLevel> SecondLevel for Recorder<L> {
    fn access(&mut self, req: L2Request) -> L2Response {
        let resp = self.inner.access(req);
        self.tape.push(Event::Access(req, resp));
        resp
    }

    fn on_l1d_evict(&mut self, line: LineAddr, footprint: Footprint, dirty: bool) {
        self.inner.on_l1d_evict(line, footprint, dirty);
        self.tape.push(Event::Evict {
            line,
            footprint,
            dirty,
        });
    }

    fn stats(&self) -> &L2Stats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn geometry(&self) -> LineGeometry {
        self.inner.geometry()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn health(&self) -> Option<&CacheHealth> {
        self.inner.health()
    }
}

/// A [`SecondLevel`] that answers from a tape. Every request and eviction
/// it sees must be the next recorded event; anything else is counted as a
/// mismatch (and answered as a full-line miss so the run can finish).
pub struct Player<'t> {
    tape: &'t [Event],
    pos: usize,
    mismatches: u64,
    stats: L2Stats,
}

impl<'t> Player<'t> {
    pub fn new(tape: &'t [Event]) -> Self {
        let geom = LineGeometry::default();
        Player {
            tape,
            pos: 0,
            mismatches: 0,
            stats: L2Stats::new(geom.words_per_line(), 1),
        }
    }

    /// Events that did not match the tape, plus recorded events never
    /// asked for. Zero means the hierarchy saw exactly the recording.
    pub fn divergence(&self) -> u64 {
        self.mismatches + self.tape.len().saturating_sub(self.pos) as u64
    }
}

impl SecondLevel for Player<'_> {
    fn access(&mut self, req: L2Request) -> L2Response {
        let next = self.tape.get(self.pos).copied();
        self.pos += 1;
        match next {
            Some(Event::Access(want, resp)) if want == req => resp,
            _ => {
                self.mismatches += 1;
                L2Response {
                    outcome: L2Outcome::LineMiss,
                    valid_words: Footprint::full(LineGeometry::default().words_per_line()),
                }
            }
        }
    }

    fn on_l1d_evict(&mut self, line: LineAddr, footprint: Footprint, dirty: bool) {
        let seen = Event::Evict {
            line,
            footprint,
            dirty,
        };
        if self.tape.get(self.pos) != Some(&seen) {
            self.mismatches += 1;
        }
        self.pos += 1;
    }

    fn stats(&self) -> &L2Stats {
        &self.stats
    }

    fn reset_stats(&mut self) {}

    fn geometry(&self) -> LineGeometry {
        LineGeometry::default()
    }

    fn name(&self) -> &str {
        "tape"
    }
}

/// Drives `l2` with the tape's events and returns how many of its
/// responses differ from the recorded ones. The MRC engines answer every
/// request as a nominal miss, so their callers ignore the count; the
/// baseline tape they are fed never depends on the answers (every
/// baseline response is a full line).
pub fn replay<L: SecondLevel>(tape: &[Event], l2: &mut L) -> u64 {
    let mut mismatches = 0;
    for event in tape {
        match *event {
            Event::Access(req, resp) => {
                if l2.access(req) != resp {
                    mismatches += 1;
                }
            }
            Event::Evict {
                line,
                footprint,
                dirty,
            } => l2.on_l1d_evict(line, footprint, dirty),
        }
    }
    mismatches
}

/// Checks that replaying `tape` into the fresh `l2` returned every
/// recorded response (`mismatches` from [`replay`]) and ended with the
/// cell's end-to-end statistics.
pub fn check_replay<L: SecondLevel>(
    what: &str,
    mismatches: u64,
    l2: &L,
    want: &L2Stats,
) -> Result<(), String> {
    if mismatches > 0 {
        return Err(format!(
            "{what}: replay answered {mismatches} request(s) differently from the tape"
        ));
    }
    if l2.stats() != want {
        return Err(format!(
            "{what}: replayed L2 statistics differ from the cell's"
        ));
    }
    Ok(())
}

/// Flips one word of one recorded response's `valid_words`, chosen by
/// `seed`. A faithfulness check that does not notice this has no teeth.
pub fn mutate(tape: &mut [Event], seed: u64) {
    let accesses: Vec<usize> = tape
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, Event::Access(..)))
        .map(|(i, _)| i)
        .collect();
    if accesses.is_empty() {
        return;
    }
    let mut rng = SimRng::new(seed);
    let at = accesses[rng.index(accesses.len())];
    let word = rng.range(u64::from(LineGeometry::default().words_per_line()));
    if let Some(Event::Access(_, resp)) = tape.get_mut(at) {
        resp.valid_words = Footprint::from_bits(resp.valid_words.bits() ^ (1 << word));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldis_cache::Hierarchy;
    use ldis_distill::{DistillCache, DistillConfig};
    use ldis_mem::Trace;
    use ldis_workloads::spec2000;

    fn ldis() -> DistillCache {
        DistillCache::new(DistillConfig::ldis_mt_rc())
    }

    /// Records a short LDIS-MT-RC run of `health` (sparse lines, so the
    /// WOC answers partial lines).
    fn recorded() -> (Trace, Tape, L2Stats) {
        let trace = spec2000::health(7).record(40_000);
        let mut hier = Hierarchy::hpca2007(Recorder::new(ldis()));
        hier.run_trace(&trace);
        let stats = hier.l2().stats().clone();
        (trace, hier.l2_mut().take_tape(), stats)
    }

    /// The traced run's faithfulness check for one cell.
    fn faithful(trace: &Trace, tape: &[Event], want: &L2Stats) -> Result<(), String> {
        let mut fresh = ldis();
        let mismatches = replay(tape, &mut fresh);
        check_replay("cell", mismatches, &fresh, want)?;
        let mut hier = Hierarchy::hpca2007(Player::new(tape));
        hier.run_trace(trace);
        match hier.l2().divergence() {
            0 => Ok(()),
            n => Err(format!("playback diverged at {n} event(s)")),
        }
    }

    #[test]
    fn recorder_is_transparent() {
        let (trace, _, stats) = recorded();
        let mut plain = Hierarchy::hpca2007(ldis());
        plain.run_trace(&trace);
        assert_eq!(plain.l2().stats(), &stats);
    }

    #[test]
    fn unmutated_tape_is_faithful() {
        let (trace, tape, stats) = recorded();
        assert!(requests(&tape) > 0);
        faithful(&trace, &tape, &stats).expect("a fresh recording replays exactly");
    }

    #[test]
    fn seeded_valid_words_mutation_is_reported() {
        let (trace, tape, stats) = recorded();
        for seed in 0..8 {
            let mut bad = tape.clone();
            mutate(&mut bad, seed);
            assert_ne!(bad, tape, "seed {seed} must change the tape");
            assert!(
                faithful(&trace, &bad, &stats).is_err(),
                "seed {seed}: a flipped valid_words bit must fail the check"
            );
        }
    }

    #[test]
    fn seeded_mutation_also_derails_playback() {
        // A flipped valid bit changes which words the L1D asks for later,
        // so the player check catches it without the replay check.
        let (trace, tape, _) = recorded();
        let derailed = (0..8)
            .filter(|&seed| {
                let mut bad = tape.clone();
                mutate(&mut bad, seed);
                let mut hier = Hierarchy::hpca2007(Player::new(&bad));
                hier.run_trace(&trace);
                hier.l2().divergence() > 0
            })
            .count();
        assert!(
            derailed > 0,
            "no seeded mutation changed the L1D's requests"
        );
    }

    #[test]
    fn player_reports_unexpected_requests() {
        let (trace, tape, _) = recorded();
        let mut hier = Hierarchy::hpca2007(Player::new(&tape[..tape.len() / 2]));
        hier.run_trace(&trace);
        assert!(hier.l2().divergence() > 0);
    }
}
