//! The decoded tier's event-driven engine.
//!
//! DPAx PEs interact only through one-deep neighbour ports and the FIFO
//! ring (paper §3.1, Fig. 6), and the register-file interlock keeps a
//! control thread off the file while its compute thread runs (§4.2). Three
//! facts make each PE's instruction sequence, and every value it moves,
//! independent of timing: ports and the FIFO keep order, the interlock
//! hides compute timing from control, and branches read only address
//! registers. The array is a Kahn process network, so instead of ticking
//! every PE through every cycle the engine lets each PE run ahead on its
//! own clock ([`Pe::advance`](crate::pe::Pe::advance)) and computes each
//! control instruction's issue cycle from the events its neighbours have
//! already produced. [`run`] visits the PEs in turn until none can
//! advance; a PE stops only when it needs a word or a free slot that a
//! neighbour has not produced yet.
//!
//! # Ready-cycle rules
//!
//! Let `r` be the previous issue cycle + 1 (the run's start cycle for the
//! first instruction). An instruction issues at the latest of `r` and
//! every rule that applies to it, and the stalls it adds to `ctrl_stalls`
//! are that issue cycle − `r`:
//!
//! * An instruction that reads or writes the RF, and `set cu`, waits for
//!   the running activation to end: a `set cu` at cycle `c` with `L` words
//!   left frees the RF at `c + L`.
//! * `in` on PE `k > 0` waits for the cycle in which PE `k − 1` wrote the
//!   word (same-cycle forwarding). On PE 0 the stream's first word is in
//!   the port at the start cycle, and each later word arrives one cycle
//!   after the previous one was taken.
//! * `out` on PE `k < n − 1` waits until one cycle after PE `k + 1` took
//!   the previous word. The last PE's `out` never waits.
//! * A FIFO pop waits until one cycle after the push.
//! * A FIFO push waits for the pop that leaves fewer than `fifo_capacity`
//!   words queued; in broadcast mode every queue needs room. The push may
//!   issue in that pop's cycle when another PE made it. A pop by the
//!   pushing PE itself lies in an earlier cycle, so it never delays the
//!   push further.
//!
//! `cycles` is 1 + the last cycle in which any control thread retired or
//! halted, or any compute word ran. `fifo_high_water` is the most words
//! queued right after any push, counting the pops made earlier in the
//! same cycle and a pop by the pushing instruction itself.
//!
//! # Why this is exact
//!
//! Every ready condition, once met, stays true until the PE's own next
//! action: only PE `k` takes its port word, only PE `k − 1` fills it, only
//! the popper pops its queue and only the last PE pushes. So the issue
//! cycle the reference loop finds by retrying every cycle is the maximum
//! above. The rules also reproduce the reference loop's order inside a
//! cycle: PEs step first to last, so a word or a free FIFO slot produced
//! by a lower PE is visible to a higher one in the same cycle, and
//! everything else one cycle later. No ready cycle lies more than one
//! cycle past the last progress, so a cycle without progress is never
//! followed by one with progress, and a run that completes here completes
//! in the reference loop at the same cycle.
//!
//! # Failures
//!
//! The engine does not compute failures. Any error the reference reports
//! (a bad access, an instruction the decoder leaves to the interpreter, a
//! compute program naming registers outside the RF), a deadlock (no PE can
//! advance while one has not halted) and any event at or past the cycle
//! budget end the run with [`Replay`]: the array restores the state the
//! run started from and replays it on the interpreted reference loop,
//! which produces the reference's error, cycle, waiting-PE list and
//! statistics. Outside tests failures are rare, so the replay costs
//! nothing on the hot path.

use std::collections::VecDeque;

use gendp_isa::Word;

use crate::array::Links;
use crate::pe::Pe;

/// The run cannot be finished exactly on the event engine: replay it from
/// its starting state on the reference loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Replay;

/// Runs every PE on its own clock from cycle `start` until all have
/// halted, and returns the run's cycle count.
///
/// # Errors
///
/// [`Replay`] if the run fails or needs more than `max_cycles`; the PEs
/// and links are then left mid-run and must be restored.
pub(crate) fn run(
    pes: &mut [Pe],
    links: &mut Links,
    start: u64,
    max_cycles: u64,
    fifo_capacity: usize,
) -> Result<u64, Replay> {
    let mut tl = Timeline::open(links, start, max_cycles, fifo_capacity);
    for pe in pes.iter_mut() {
        pe.start(start, &tl)?;
    }
    loop {
        let mut moved = false;
        for pe in pes.iter_mut() {
            moved |= pe.advance(&mut tl)?;
        }
        if !moved {
            break;
        }
    }
    if !pes.iter().all(Pe::is_halted) {
        return Err(Replay); // deadlock
    }
    let cycles = pes.iter().map(Pe::finish).fold(start, u64::max);
    tl.close(cycles);
    Ok(cycles)
}

/// The events the PEs exchange during one run: the array's [`Links`] plus
/// the cycle of every word and free slot the engine may still need.
pub(crate) struct Timeline<'a> {
    links: &'a mut Links,
    max_cycles: u64,
    /// Per PE input latch: the cycle its word was written while it holds
    /// one, else the first cycle it may be written (one after the last
    /// take). For PE 0 the stream refills the latch that cycle.
    port_at: Vec<u64>,
    /// One window per FIFO queue.
    queues: Vec<Window>,
    fifo_capacity: usize,
}

/// The event cycles of one FIFO queue that can still matter, bounded by
/// the capacity: the queued words' push cycles and the pops since the
/// latest push.
struct Window {
    /// One past the push cycle of each queued word (the first cycle it may
    /// be popped), in queue order.
    ready: VecDeque<u64>,
    /// Cycles of the pops made since the latest push, oldest first. A
    /// pop at or before the latest push can no longer delay a push.
    pops: VecDeque<u64>,
    /// One past the latest push cycle.
    after_push: u64,
    /// Pushes at the back of the queue whose occupancy waits on pops the
    /// popper has not made yet.
    unsettled: usize,
}

impl Window {
    fn open(queued: usize, start: u64) -> Self {
        Window {
            ready: std::iter::repeat_n(start, queued).collect(),
            pops: VecDeque::new(),
            after_push: start,
            unsettled: 0,
        }
    }

    /// Records a pop in cycle `at`. Every unsettled push before `at` saw
    /// exactly the pops recorded so far, so its occupancy is its position
    /// in the queue.
    fn pop(&mut self, at: u64, high_water: &mut usize) {
        let len = self.ready.len();
        while self.unsettled > 0 {
            let i = len - self.unsettled;
            if self.ready[i] > at {
                break; // pushed at or after `at`: this pop counts for it
            }
            *high_water = (*high_water).max(i + 1);
            self.unsettled -= 1;
        }
        self.ready.pop_front();
        if at >= self.after_push {
            self.pops.push_back(at);
        }
    }

    /// Records a push in cycle `at`. With a pop already recorded after
    /// `at`, every pop up to `at` is known and the occupancy is final;
    /// otherwise the push waits for the popper to catch up.
    fn push(&mut self, at: u64, high_water: &mut usize) {
        self.ready.push_back(at + 1);
        while self.pops.front().is_some_and(|&p| p <= at) {
            self.pops.pop_front();
        }
        self.after_push = at + 1;
        if self.pops.is_empty() {
            self.unsettled += 1;
        } else {
            *high_water = (*high_water).max(self.ready.len() + self.pops.len());
        }
    }

    /// The first cycle a push may issue given this queue, or `None` while
    /// it is full: the queue's free slots are the pops not yet used by a
    /// push, and a push uses the oldest. It delays the push only if it is
    /// one of the pops since the latest push.
    fn push_ready(&self, capacity: usize) -> Option<u64> {
        let free = capacity.checked_sub(self.ready.len()).filter(|&f| f > 0)?;
        Some(if self.pops.len() == free {
            self.pops[0]
        } else {
            0
        })
    }
}

impl<'a> Timeline<'a> {
    fn open(links: &'a mut Links, start: u64, max_cycles: u64, fifo_capacity: usize) -> Self {
        let queues = links
            .fifos
            .iter()
            .map(|f| Window::open(f.len(), start))
            .collect();
        Timeline {
            port_at: vec![start; links.ports.len()],
            links,
            max_cycles,
            queues,
            fifo_capacity,
        }
    }

    /// Settles the unsettled pushes (no pop follows them) and leaves the
    /// links as the reference loop leaves them after `cycles` cycles.
    fn close(self, cycles: u64) {
        let links = self.links;
        for (window, fifo) in self.queues.iter().zip(&links.fifos) {
            if window.unsettled > 0 {
                links.fifo_high_water = links.fifo_high_water.max(fifo.len());
            }
        }
        // The stream refills PE 0's latch at the start of every cycle run.
        if links.ports[0].is_none() && self.port_at[0] < cycles {
            links.ports[0] = links.in_stream.pop_front();
        }
    }

    /// Checks that an event ending at `end` (one past its cycle) fits the
    /// budget.
    pub fn within_budget(&self, end: u64) -> Result<(), Replay> {
        if end > self.max_cycles {
            Err(Replay)
        } else {
            Ok(())
        }
    }

    /// The cycle PE `k`'s next input word is in its latch, if produced.
    pub fn in_ready(&self, k: usize) -> Option<u64> {
        let produced = self.links.ports[k].is_some() || k == 0 && !self.links.in_stream.is_empty();
        produced.then_some(self.port_at[k])
    }

    /// PE `k` takes its input word in cycle `at`.
    pub fn take_in(&mut self, k: usize, at: u64) -> Word {
        self.port_at[k] = at + 1;
        let word = match self.links.ports[k].take() {
            Some(w) => Some(w),
            None => self.links.in_stream.pop_front(),
        };
        word.expect("taken only when ready")
    }

    /// The first cycle PE `k` may write its output, if the latch is free.
    pub fn out_ready(&self, k: usize) -> Option<u64> {
        match self.links.ports.get(k + 1) {
            None => Some(0), // the output data buffer never back-pressures
            Some(None) => Some(self.port_at[k + 1]),
            Some(Some(_)) => None,
        }
    }

    /// PE `k` writes `w` to its output in cycle `at`.
    pub fn put_out(&mut self, k: usize, at: u64, w: Word) {
        match self.links.ports.get_mut(k + 1) {
            None => self.links.out_sink.push(w),
            Some(latch) => {
                *latch = Some(w);
                self.port_at[k + 1] = at;
            }
        }
    }

    /// The FIFO queue PE `k` pops: its own in broadcast mode, the single
    /// queue for PE 0 otherwise.
    fn queue_of(&self, k: usize) -> Result<usize, Replay> {
        match self.queues.len() {
            1 if k == 0 => Ok(0),
            1 => Err(Replay),
            _ => Ok(k),
        }
    }

    /// The first cycle PE `k` may pop the FIFO, if a word is queued.
    pub fn pop_ready(&self, k: usize) -> Result<Option<u64>, Replay> {
        Ok(self.queues[self.queue_of(k)?].ready.front().copied())
    }

    /// PE `k` pops its FIFO queue in cycle `at`.
    pub fn pop(&mut self, k: usize, at: u64) -> Word {
        let q = self.queue_of(k).expect("checked by pop_ready");
        self.queues[q].pop(at, &mut self.links.fifo_high_water);
        self.links.fifo_pops += 1;
        self.links.fifos[q]
            .pop_front()
            .expect("popped only when ready")
    }

    /// The first cycle PE `k` may push the FIFO, if every queue has room.
    pub fn push_ready(&self, k: usize) -> Result<Option<u64>, Replay> {
        if k + 1 != self.port_at.len() {
            return Err(Replay); // only the last PE writes the FIFO
        }
        let mut at = 0;
        for window in &self.queues {
            match window.push_ready(self.fifo_capacity) {
                Some(ready) => at = at.max(ready),
                None => return Ok(None),
            }
        }
        Ok(Some(at))
    }

    /// The last PE pushes `w` in cycle `at`, into every queue.
    pub fn push(&mut self, at: u64, w: Word) {
        for (window, fifo) in self.queues.iter_mut().zip(&mut self.links.fifos) {
            fifo.push_back(w);
            window.push(at, &mut self.links.fifo_high_water);
        }
        self.links.fifo_pushes += 1;
    }
}
