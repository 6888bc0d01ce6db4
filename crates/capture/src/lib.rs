//! Live capture frontend: record *real* Rust executions into SmartTrack's
//! binary trace format.
//!
//! Everything the analyses consume elsewhere in this workspace is
//! synthetic — generated workloads, paper figures, seeded random traces.
//! SmartTrack's point (Roemer, Genç, Bond, PLDI 2020 §5.1) is *online*
//! analysis of real program executions, so this crate provides drop-in
//! instrumented `std::sync` wrappers that perform the real operation and
//! record the matching trace event:
//!
//! * [`Mutex`] — `acq`/`rel`, with `try_lock` recording `tryf` on failure,
//! * [`RwLock`] — `acqr`/`acqw`/`rel` over a real `std::sync::RwLock`
//!   (concurrent readers run — and are recorded — in parallel), plus
//!   `try_read`/`try_write`,
//! * [`Condvar`] — `rel`/`acq`/`wait` expansion plus `ntf`/`nfa`,
//! * [`Barrier`] — `bent`/`bext` round discipline via a double rendezvous,
//! * [`AtomicU32`] — `vrd`/`vwr` volatile synchronization accesses,
//! * [`Shared`] — plain `rd`/`wr` data accesses (the ones races are about),
//! * [`CaptureSession::spawn`] / [`JoinHandle::join`] — `fork`/`join` edges.
//!
//! Ids (`ThreadId`, `LockId`, `VarId`, `CondId`, `BarrierId`, `Loc`) are
//! interned stably at first use. Events land in lock-free per-thread
//! buffers (a thread-local `Vec` with epoch flushes — no global lock on
//! the hot path) and funnel through one [`CaptureSession`] emitter into an
//! STB [`StbWriter`](smarttrack_trace::binary::StbWriter) over a
//! [`CaptureSink`]: a file, memory, a live
//! [`ServeClient`](smarttrack_serve::ServeClient) socket feeding the serve
//! daemon, or a tee of several.
//!
//! # Ordering soundness
//!
//! The recorded stream must be a linearization the stream validator
//! accepts. Each wrapper therefore stamps its event *while the underlying
//! primitive is held or ordered by that very operation* — wasmgrind-style —
//! and the session merges per-thread buffers back into global stamp order
//! before writing. See the `session` module and `docs/CAPTURE.md` for
//! the full argument.
//!
//! # Panic and poison behavior
//!
//! Wrappers absorb `std` lock poisoning (`PoisonError::into_inner`): a
//! panicking captured thread still records its releases while unwinding
//! (guards record on drop) and flushes its buffer before exiting, so the
//! capture of a crashed run is a validator-clean prefix of the execution.

#![warn(missing_docs)]

mod cell;
mod session;
mod sink;
mod sync;
pub mod twins;

pub use cell::{AtomicU32, Shared};
pub use session::{CaptureConfig, CaptureError, CaptureReport, CaptureSession, JoinHandle, Nudge};
pub use sink::CaptureSink;
pub use sync::{Barrier, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use smarttrack_detect::AnalysisConfig;
    use smarttrack_trace::binary::from_stb_bytes;
    use smarttrack_trace::Op;

    use super::twins::{run_twin, TwinKind};
    use super::*;

    fn capture_bytes(f: impl FnOnce(&CaptureSession)) -> Vec<u8> {
        let (sink, bytes) = CaptureSink::memory();
        let session = CaptureSession::new(sink, CaptureConfig::default());
        f(&session);
        session.finish().expect("finish");
        let out = bytes.lock().unwrap().clone();
        out
    }

    #[test]
    fn lock_events_are_recorded_in_order() {
        let bytes = capture_bytes(|session| {
            let m = Mutex::new(session, 0u32);
            for _ in 0..2 {
                *m.lock() += 1;
            }
            *m.lock() += 1;
        });
        let trace = from_stb_bytes(&bytes).expect("validator-clean");
        let ops: Vec<_> = trace.events().iter().map(|e| e.op).collect();
        assert_eq!(
            ops,
            vec![
                Op::Acquire(m(0)),
                Op::Release(m(0)),
                Op::Acquire(m(0)),
                Op::Release(m(0)),
                Op::Acquire(m(0)),
                Op::Release(m(0)),
            ]
        );
        // Repetitions of one source line intern to one stable site (the
        // release is stamped at its acquire's site); distinct lines differ.
        let locs: Vec<_> = trace.events().iter().map(|e| e.loc).collect();
        assert_eq!(locs[0], locs[1]);
        assert_eq!(locs[0], locs[2]);
        assert_ne!(locs[0], locs[4]);
        fn m(i: u32) -> smarttrack_trace::LockId {
            smarttrack_trace::LockId::new(i)
        }
    }

    #[test]
    fn fork_join_edges_bracket_child_events() {
        let bytes = capture_bytes(|session| {
            let x = Arc::new(Shared::new(session, 0u32));
            let child = {
                let x = x.clone();
                session.spawn(move || x.set(1))
            };
            child.join().unwrap();
            let _ = x.get();
        });
        let trace = from_stb_bytes(&bytes).expect("validator-clean");
        let ops: Vec<_> = trace.events().iter().map(|e| (e.tid.raw(), e.op)).collect();
        use smarttrack_trace::VarId;
        let x = VarId::new(0);
        let t1 = smarttrack_clock::ThreadId::new(1);
        assert_eq!(
            ops,
            vec![
                (0, Op::Fork(t1)),
                (1, Op::Write(x)),
                (0, Op::Join(t1)),
                (0, Op::Read(x)),
            ]
        );
    }

    #[test]
    fn tiny_buffers_force_mid_run_epoch_flushes() {
        let (sink, bytes) = CaptureSink::memory();
        let config = CaptureConfig {
            buffer_events: 1,
            chunk_events: 2,
            ..CaptureConfig::default()
        };
        let report = run_twin(TwinKind::LockProtected, sink, config).expect("twin");
        let trace = from_stb_bytes(&bytes.lock().unwrap()).expect("validator-clean");
        assert_eq!(trace.len() as u64, report.events);
        assert_eq!(report.threads, 3);
    }

    #[test]
    fn finish_rejects_unjoined_threads() {
        let (sink, _bytes) = CaptureSink::memory();
        let session = CaptureSession::new(sink, CaptureConfig::default());
        let gate = Arc::new(std::sync::Barrier::new(2));
        let child = {
            let gate = gate.clone();
            session.spawn(move || gate.wait())
        };
        assert!(matches!(
            session.finish(),
            Err(CaptureError::ThreadsActive(1))
        ));
        gate.wait();
        child.join().unwrap();
    }

    #[test]
    fn panicking_thread_leaves_a_validator_clean_prefix() {
        let (sink, bytes) = CaptureSink::memory();
        let session = CaptureSession::new(sink, CaptureConfig::default());
        let m = Arc::new(Mutex::new(&session, 0u32));
        let child = {
            let m = m.clone();
            session.spawn(move || {
                let _g = m.lock();
                panic!("captured panic");
            })
        };
        assert!(child.join().is_err());
        // The poisoned lock is still usable and still recorded.
        *m.lock() += 1;
        session.finish().expect("finish");
        let trace = from_stb_bytes(&bytes.lock().unwrap()).expect("validator-clean");
        // fork, child acq+rel (release recorded during unwinding), join,
        // parent acq+rel.
        assert_eq!(trace.len(), 6);
    }

    #[test]
    fn rwlock_records_read_and_write_modes() {
        let bytes = capture_bytes(|session| {
            let rw = RwLock::new(session, 0u32);
            *rw.write() = 1;
            let _ = *rw.read();
            let _ = *rw.try_read().expect("uncontended try_read succeeds");
            let _ = *rw.try_write().expect("uncontended try_write succeeds");
        });
        let trace = from_stb_bytes(&bytes).expect("validator-clean");
        let ops: Vec<_> = trace.events().iter().map(|e| e.op).collect();
        let m = smarttrack_trace::LockId::new(0);
        assert_eq!(
            ops,
            vec![
                Op::AcqWrite(m),
                Op::Release(m),
                Op::AcqRead(m),
                Op::Release(m),
                Op::AcqRead(m),
                Op::Release(m),
                Op::AcqWrite(m),
                Op::Release(m),
            ]
        );
    }

    #[test]
    fn contended_trylocks_record_failures() {
        let bytes = capture_bytes(|session| {
            let rw = Arc::new(RwLock::new(session, 0u32));
            let m = Arc::new(Mutex::new(session, 0u32));
            // Main holds the write lock and the mutex across the child's
            // whole lifetime (it joins before dropping), so every child
            // attempt deterministically fails.
            let wg = rw.write();
            let mg = m.lock();
            let child = {
                let (rw, m) = (rw.clone(), m.clone());
                session.spawn(move || {
                    assert!(rw.try_read().is_none(), "write lock excludes readers");
                    assert!(rw.try_write().is_none());
                    assert!(m.try_lock().is_none());
                })
            };
            child.join().expect("child");
            drop(wg);
            drop(mg);
        });
        let trace = from_stb_bytes(&bytes).expect("validator-clean");
        let fails = trace
            .events()
            .iter()
            .filter(|e| matches!(e.op, Op::TryAcqFail(_)))
            .count();
        assert_eq!(fails, 3);
        // Failed trylocks order nothing and race with nothing.
        for config in AnalysisConfig::table1() {
            let outcome = smarttrack_detect::analyze(&trace, config);
            assert_eq!(outcome.report.static_count(), 0, "under {config}");
        }
    }

    #[test]
    fn every_twin_matches_expectation_under_every_cell() {
        for kind in TwinKind::ALL {
            let (sink, bytes) = CaptureSink::memory();
            run_twin(kind, sink, CaptureConfig::default()).expect("twin");
            let trace = from_stb_bytes(&bytes.lock().unwrap())
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            for config in AnalysisConfig::table1() {
                let outcome = smarttrack_detect::analyze(&trace, config);
                assert_eq!(
                    outcome.report.static_count(),
                    kind.expected_static(),
                    "{} under {config}",
                    kind.name()
                );
            }
        }
    }
}
