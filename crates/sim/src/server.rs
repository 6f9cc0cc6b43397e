//! Single-server FIFO queue used to model sequential service points.
//!
//! The paper's central finding is that the Tendermint RPC endpoint serves
//! queries one at a time ("Tendermint is unable to process queries in
//! parallel, requiring the relayer to wait while its requests for data are
//! processed one by one"). [`FifoServer`] captures exactly that behaviour: a
//! job submitted at time `t` with service requirement `s` completes at
//! `max(t, busy_until) + s`.

use crate::time::{SimDuration, SimTime};

/// A deterministic single-server FIFO queue.
///
/// The server keeps track of when it will next be idle and of simple
/// utilisation statistics. It does not store the jobs themselves — callers
/// submit a job and receive its completion time, which they typically turn
/// into a scheduled event.
///
/// # Example
///
/// ```rust
/// use xcc_sim::{FifoServer, SimDuration, SimTime};
///
/// let mut rpc = FifoServer::new("rpc");
/// let t0 = SimTime::ZERO;
/// let first = rpc.submit(t0, SimDuration::from_secs(3));
/// let second = rpc.submit(t0, SimDuration::from_secs(2));
/// assert_eq!(first.as_secs_f64(), 3.0);
/// // The second query waits for the first: sequential processing.
/// assert_eq!(second.as_secs_f64(), 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct FifoServer {
    name: String,
    busy_until: SimTime,
    busy_time: SimDuration,
    jobs_served: u64,
    total_wait: SimDuration,
    max_backlog: SimDuration,
}

impl FifoServer {
    /// Creates an idle server with a diagnostic `name`.
    pub fn new(name: impl Into<String>) -> Self {
        FifoServer {
            name: name.into(),
            busy_until: SimTime::ZERO,
            busy_time: SimDuration::ZERO,
            jobs_served: 0,
            total_wait: SimDuration::ZERO,
            max_backlog: SimDuration::ZERO,
        }
    }

    /// The diagnostic name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Submits a job arriving at `now` with service requirement `service` and
    /// returns the time at which the job completes.
    pub fn submit(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        let start = self.busy_until.max(now);
        let wait = start - now;
        let completion = start + service;
        self.busy_until = completion;
        self.busy_time += service;
        self.jobs_served += 1;
        self.total_wait += wait;
        let backlog = completion - now;
        if backlog > self.max_backlog {
            self.max_backlog = backlog;
        }
        completion
    }

    /// The instant at which the server becomes idle given everything
    /// submitted so far.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total number of jobs submitted so far.
    pub fn jobs_served(&self) -> u64 {
        self.jobs_served
    }

    /// Cumulative service time of all submitted jobs.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Cumulative queueing delay experienced by all submitted jobs.
    pub fn total_wait(&self) -> SimDuration {
        self.total_wait
    }

    /// The largest observed sojourn time (wait plus service) of any job.
    pub fn max_backlog(&self) -> SimDuration {
        self.max_backlog
    }

    /// Resets all statistics and makes the server idle again.
    pub fn reset(&mut self) {
        self.busy_until = SimTime::ZERO;
        self.busy_time = SimDuration::ZERO;
        self.jobs_served = 0;
        self.total_wait = SimDuration::ZERO;
        self.max_backlog = SimDuration::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_serves_immediately() {
        let mut s = FifoServer::new("rpc");
        let done = s.submit(SimTime::from_secs(10), SimDuration::from_secs(2));
        assert_eq!(done, SimTime::from_secs(12));
        assert_eq!(s.total_wait(), SimDuration::ZERO);
    }

    #[test]
    fn busy_server_queues_jobs_fifo() {
        let mut s = FifoServer::new("rpc");
        let t = SimTime::ZERO;
        let a = s.submit(t, SimDuration::from_secs(1));
        let b = s.submit(t, SimDuration::from_secs(1));
        let c = s.submit(t, SimDuration::from_secs(1));
        assert_eq!(a, SimTime::from_secs(1));
        assert_eq!(b, SimTime::from_secs(2));
        assert_eq!(c, SimTime::from_secs(3));
        assert_eq!(s.jobs_served(), 3);
        assert_eq!(s.total_wait(), SimDuration::from_secs(3)); // 0 + 1 + 2
    }

    #[test]
    fn later_arrival_after_idle_gap() {
        let mut s = FifoServer::new("rpc");
        s.submit(SimTime::ZERO, SimDuration::from_secs(1));
        // Arrives after the server went idle again.
        let done = s.submit(SimTime::from_secs(5), SimDuration::from_secs(1));
        assert_eq!(done, SimTime::from_secs(6));
        assert_eq!(s.total_wait(), SimDuration::ZERO);
    }

    #[test]
    fn backlog_reporting() {
        let mut s = FifoServer::new("rpc");
        s.submit(SimTime::ZERO, SimDuration::from_secs(10));
        // Arriving at 4 s behind a job that ends at 10 s: 6 s of waiting
        // plus 1 s of service, still under the first job's own 10 s.
        s.submit(SimTime::from_secs(4), SimDuration::from_secs(1));
        assert_eq!(s.total_wait(), SimDuration::from_secs(6));
        assert_eq!(s.max_backlog(), SimDuration::from_secs(10));
    }

    #[test]
    fn reset_clears_state() {
        let mut s = FifoServer::new("rpc");
        s.submit(SimTime::ZERO, SimDuration::from_secs(10));
        s.reset();
        assert_eq!(s.jobs_served(), 0);
        assert_eq!(s.busy_until(), SimTime::ZERO);
    }
}
