//! A [`CorpusSource`] wrapper that logs when each entry is fetched and on
//! which thread. The suite and the dispatch workers fetch an app right
//! before running it and fetch the next one right after, so the gap
//! between two fetches on one thread is that app's service time — a
//! per-app latency read from the outside, through the public trait.

use fragdroid::suite::SuiteContainer;
use fragdroid::CorpusSource;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// One fetch.
#[derive(Clone, Copy, Debug)]
pub struct Fetch {
    /// The fetching thread.
    pub thread: ThreadId,
    /// The entry fetched.
    pub index: usize,
    /// When.
    pub at: Instant,
}

/// Wraps a source, delegating everything and logging fetches.
pub struct Logged<'a> {
    inner: &'a dyn CorpusSource,
    log: Mutex<Vec<Fetch>>,
}

impl<'a> Logged<'a> {
    /// Wraps `inner` with an empty log.
    pub fn new(inner: &'a dyn CorpusSource) -> Logged<'a> {
        Logged { inner, log: Mutex::new(Vec::new()) }
    }

    /// Takes the log, leaving it empty.
    pub fn take(&self) -> Vec<Fetch> {
        std::mem::take(&mut *self.log.lock().expect("fetch log poisoned"))
    }
}

impl CorpusSource for Logged<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn fetch(&self, index: usize) -> Result<SuiteContainer, String> {
        let fetch = Fetch { thread: std::thread::current().id(), index, at: Instant::now() };
        self.log.lock().expect("fetch log poisoned").push(fetch);
        self.inner.fetch(index)
    }

    fn digest(&self) -> Result<u64, String> {
        self.inner.digest()
    }
}

/// Per-app service intervals `(start, end, index)`: consecutive fetches
/// on one thread, skipping the thread `skip` (a caller that fetches for
/// other reasons, such as fingerprinting). A thread's last fetch has no
/// successor and yields no interval.
pub fn intervals(log: &[Fetch], skip: Option<ThreadId>) -> Vec<(Instant, Instant, usize)> {
    let mut by_thread: Vec<(ThreadId, Vec<&Fetch>)> = Vec::new();
    for fetch in log.iter().filter(|f| Some(f.thread) != skip) {
        match by_thread.iter_mut().find(|(t, _)| *t == fetch.thread) {
            Some((_, list)) => list.push(fetch),
            None => by_thread.push((fetch.thread, vec![fetch])),
        }
    }
    let mut out = Vec::new();
    for (_, mut list) in by_thread {
        list.sort_by_key(|f| f.at);
        out.extend(list.windows(2).map(|w| (w[0].at, w[1].at, w[0].index)));
    }
    out
}
