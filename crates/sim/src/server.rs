//! A single FIFO server, the one model of a sequential resource: an RPC
//! lane, a relayer end's packet worker, the workload CLI, the hop forwarder.
//! A job arriving at `arrives` starts at `arrives.max(busy_until)`. A job of
//! known service time is one [`serve`](Server::serve); a job that chains
//! other work reads its [`start`](Server::start), runs, and then records
//! itself with [`occupy`](Server::occupy). [`ServerStats`] holds what
//! Denning and Buzen's operational laws need of a server.

use crate::{SimDuration, SimTime};

/// A server's accounting over every job it has recorded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Jobs served.
    pub served: u64,
    /// Cumulative time the server spent busy.
    pub busy_time: SimDuration,
    /// Cumulative queueing delay (start minus arrival) over all jobs.
    pub total_wait: SimDuration,
    /// Largest sojourn time (wait plus service) of any job.
    pub max_backlog: SimDuration,
}

/// A single-server FIFO queue in virtual time.
#[derive(Debug, Default)]
pub struct Server {
    /// When the server finishes the last job it has recorded.
    busy_until: SimTime,
    stats: ServerStats,
}

impl Server {
    /// When a job arriving at `arrives` starts.
    #[inline]
    pub fn start(&self, arrives: SimTime) -> SimTime {
        arrives.max(self.busy_until)
    }

    /// Records one job that arrived at `arrives`, started at
    /// [`start`](Server::start)`(arrives)` and was done at `done`.
    #[inline]
    pub fn occupy(&mut self, arrives: SimTime, done: SimTime) {
        let start = self.start(arrives);
        let stats = &mut self.stats;
        stats.served += 1;
        stats.busy_time += done - start;
        stats.total_wait += start - arrives;
        stats.max_backlog = stats.max_backlog.max(done - arrives);
        self.busy_until = done;
    }

    /// Serves one job of known `service` time; returns when it is done.
    #[inline]
    pub fn serve(&mut self, arrives: SimTime, service: SimDuration) -> SimTime {
        let done = self.start(arrives) + service;
        self.occupy(arrives, done);
        done
    }

    /// The server's accounting so far.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }
}
