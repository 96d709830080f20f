//! Overflow provenance: *where* did the first INF/NaN come from?
//!
//! The paper's Fig. 1c failure mode — a half-precision run whose loss
//! collapses to NaN — always starts with one concrete rounding event:
//! some `f32 → binary16` conversion produced `±INF` (finite input whose
//! magnitude rounds to ≥ 65520, §3.1.3) or passed through a non-finite
//! value created upstream. Every arithmetic path in this crate (implicit
//! promotion, intrinsics, `Half2`/`Half4`/`Half8`) funnels its final
//! rounding through [`crate::Half::from_f32`], which makes that function a
//! single choke point where provenance can be observed. The eight-lane row
//! kernels (`crate::slice`) are the one bulk exception: a block whose
//! outputs are all finite adds its conversion count in one step, and any
//! other block goes through `Half::from_f32` lane by lane.
//!
//! This module is an **opt-in** recorder for that choke point:
//!
//! * The hook inside `Half::from_f32` is compiled only under the
//!   `provenance` cargo feature, so default builds pay nothing.
//! * Even when compiled, recording happens only between [`begin`] and
//!   [`take`] — a thread-local flag keeps the inactive cost to one
//!   `Cell` read per conversion.
//! * Call sites label themselves with [`site`] guards (kernel entry
//!   points, tensor ops, model layers); the first non-finite conversion
//!   inside a tracking window is captured with its label, making "which
//!   tensor overflowed first this epoch" a direct query.
//!
//! The types below are always compiled (only the recording hook is
//! feature-gated), so downstream crates can plumb summaries through their
//! APIs without `cfg` noise. With the feature off, [`take`] simply returns
//! an empty [`Summary`].
//!
//! Threads: the recorder is thread-local, and a kernel launch may run its
//! CTAs on pool workers that have no window of their own. The launch
//! `halfgnn_kernels::common::launch` therefore reads the caller's labels
//! ([`open_sites`]), runs each CTA in its own window under them
//! ([`windowed`]), and credits those windows to the caller's in CTA order
//! ([`credit`]). [`Summary::merge`] offsets a later window's first event
//! by the earlier window's conversions, so the credited record is, field
//! for field, what one window over a sequential run records: the same at
//! every thread count.

#[cfg(feature = "provenance")]
use crate::Half;
use std::cell::{Cell, RefCell};
use std::fmt;

/// Why a conversion produced a non-finite half.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NonfiniteKind {
    /// Finite `f32` input rounded to `±INF`: a genuine FP16 range
    /// overflow (|input| ≥ 65520 after rounding).
    Overflow,
    /// The input was already `±INF` — created upstream by `f32` math
    /// (e.g. division by zero), propagated through this conversion.
    InfPropagated,
    /// The input was already NaN (e.g. `INF − INF`, `0/0`), propagated
    /// (and quieted) through this conversion.
    NanPropagated,
}

impl fmt::Display for NonfiniteKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NonfiniteKind::Overflow => write!(f, "FP16 overflow (finite f32 → INF)"),
            NonfiniteKind::InfPropagated => write!(f, "INF propagated from f32 math"),
            NonfiniteKind::NanPropagated => write!(f, "NaN propagated from f32 math"),
        }
    }
}

/// The first non-finite conversion observed in a tracking window.
#[derive(Clone, Debug)]
pub struct OverflowEvent {
    /// The [`site`] labels active when the event happened, outermost
    /// first, joined with `/` (e.g. `gcn.layer1.aggregate/cusparse_f16_spmmv`).
    pub site: String,
    /// How many conversions the window had seen before this one.
    pub conversion_index: u64,
    /// The `f32` value whose conversion went non-finite.
    pub input: f32,
    /// Classification of the event.
    pub kind: NonfiniteKind,
}

impl fmt::Display for OverflowEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at site '{}' (conversion #{}, input {:e})",
            self.kind, self.site, self.conversion_index, self.input
        )
    }
}

/// Counters for one tracking window ([`begin`] … [`take`]).
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Total `f32 → half` conversions observed.
    pub conversions: u64,
    /// Conversions where a finite input overflowed to `±INF`.
    pub overflows: u64,
    /// Conversions that propagated an upstream `±INF`.
    pub inf_propagated: u64,
    /// Conversions that propagated an upstream NaN.
    pub nan_propagated: u64,
    /// The first non-finite conversion, with its site label — the genesis
    /// event every later INF/NaN descends from.
    pub first: Option<OverflowEvent>,
}

impl Summary {
    /// The empty window (const, so the recorder's thread-local needs no
    /// lazy initialisation).
    const EMPTY: Summary =
        Summary { conversions: 0, overflows: 0, inf_propagated: 0, nan_propagated: 0, first: None };

    /// Total non-finite conversions of any kind.
    pub fn nonfinite(&self) -> u64 {
        self.overflows + self.inf_propagated + self.nan_propagated
    }

    /// True when the window saw no non-finite conversion at all.
    pub fn is_clean(&self) -> bool {
        self.first.is_none()
    }

    /// Fold a later window into this one, so that the result reads as one
    /// window over both: counts add, and the first event is this window's,
    /// else the later one's with its `conversion_index` moved past this
    /// window's conversions.
    pub fn merge(&mut self, later: Summary) {
        if self.first.is_none() {
            self.first = later.first.map(|e| OverflowEvent {
                conversion_index: self.conversions + e.conversion_index,
                ..e
            });
        }
        self.conversions += later.conversions;
        self.overflows += later.overflows;
        self.inf_propagated += later.inf_propagated;
        self.nan_propagated += later.nan_propagated;
    }
}

#[cfg(feature = "provenance")]
const UNLABELED: &str = "<unlabeled>";

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static SITES: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// Where this thread's visible labels start in `SITES`: [`windowed`]
    /// stacks its labels above the thread's own and hides those below.
    static BASE: Cell<usize> = const { Cell::new(0) };
    static WINDOW: RefCell<Summary> = const { RefCell::new(Summary::EMPTY) };
}

/// Start a tracking window on this thread, clearing any previous one.
pub fn begin() {
    WINDOW.with(|w| *w.borrow_mut() = Summary::default());
    ACTIVE.with(|a| a.set(true));
}

/// Stop tracking and return the window's summary.
///
/// Without the `provenance` feature no conversions are ever recorded, so
/// this returns an empty (clean) summary.
pub fn take() -> Summary {
    ACTIVE.with(|a| a.set(false));
    WINDOW.with(|w| std::mem::take(&mut *w.borrow_mut()))
}

/// True while a tracking window is open on this thread.
pub fn is_active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Run `f` inside its own nested tracking window and return its output
/// together with the conversions *it alone* performed.
///
/// Any outer window is suspended for the duration and resumed untouched
/// afterwards — its counters never see `f`'s conversions. This is what
/// lets the kernel autotuner evaluate (and deliberately overflow)
/// candidate plans in the middle of a training epoch without polluting
/// that epoch's provenance summary. Without the `provenance` feature the
/// returned summary is empty, like [`take`].
pub fn isolated<T>(f: impl FnOnce() -> T) -> (T, Summary) {
    let outer_active = ACTIVE.with(|a| a.get());
    let outer_window = WINDOW.with(|w| std::mem::take(&mut *w.borrow_mut()));
    begin();
    let out = f();
    let summary = take();
    WINDOW.with(|w| *w.borrow_mut() = outer_window);
    ACTIVE.with(|a| a.set(outer_active));
    (out, summary)
}

/// The site labels of this thread's open window, outermost first, or
/// `None` when no window is open or the recorder is compiled out (nothing
/// would be recorded). Work handed to other threads carries them into
/// [`windowed`].
pub fn open_sites() -> Option<Vec<&'static str>> {
    (cfg!(feature = "provenance") && is_active())
        .then(|| SITES.with(|s| s.borrow()[BASE.get()..].to_vec()))
}

/// Run `f` in its own tracking window under the site labels `sites`, on
/// whichever thread calls this, and return its output with the window's
/// summary. This thread's own window and labels are suspended for the
/// call and restored afterwards, as with [`isolated`].
pub fn windowed<T>(sites: &[&'static str], f: impl FnOnce() -> T) -> (T, Summary) {
    let depth = SITES.with(|s| {
        let mut s = s.borrow_mut();
        let depth = s.len();
        s.extend_from_slice(sites);
        depth
    });
    let base = BASE.replace(depth);
    let out = isolated(f);
    SITES.with(|s| s.borrow_mut().truncate(depth));
    BASE.set(base);
    out
}

/// Merge `summary` into this thread's open window as if its conversions
/// had happened here, now (see [`Summary::merge`]). A no-op when no window
/// is open.
pub fn credit(summary: Summary) {
    if is_active() {
        WINDOW.with(|w| w.borrow_mut().merge(summary));
    }
}

/// RAII guard popping its site label (and anything pushed above it) on drop.
pub struct SiteGuard {
    depth: usize,
}

impl Drop for SiteGuard {
    fn drop(&mut self) {
        SITES.with(|s| s.borrow_mut().truncate(self.depth));
    }
}

/// Label the current region of computation (kernel, tensor op, layer).
///
/// Guards nest: a trainer can label `gcn.layer1.aggregate` and the kernel
/// underneath labels `cusparse_f16_spmmv`; the first non-finite conversion
/// reports the whole stack joined with `/`, identifying both the logical
/// tensor and the kernel producing it. Cheap enough to leave in
/// unconditionally.
#[must_use = "the label lasts only as long as the returned guard"]
pub fn site(label: &'static str) -> SiteGuard {
    SiteGuard {
        depth: SITES.with(|s| {
            let mut s = s.borrow_mut();
            s.push(label);
            s.len() - 1
        }),
    }
}

/// The recorder hook — called by `Half::from_f32` under the `provenance`
/// feature for every conversion.
#[cfg(feature = "provenance")]
#[inline]
pub(crate) fn record(input: f32, out: Half) {
    if !ACTIVE.with(|a| a.get()) {
        return;
    }
    if out.is_finite() {
        WINDOW.with(|w| w.borrow_mut().conversions += 1);
    } else {
        record_nonfinite(input, out);
    }
}

/// Count `n` conversions that all produced finite halves, as one add: the
/// bulk form of `n` `record` calls on finite outputs, used by the
/// eight-lane row kernels (`crate::slice`). A no-op outside a tracking
/// window and without the `provenance` feature, like `record`.
#[inline]
#[cfg_attr(not(feature = "provenance"), allow(unused_variables))]
pub(crate) fn count_clean(n: u64) {
    #[cfg(feature = "provenance")]
    if n > 0 && ACTIVE.with(|a| a.get()) {
        WINDOW.with(|w| w.borrow_mut().conversions += n);
    }
}

/// The rare half of [`record`]: classify a non-finite conversion, count it
/// and keep it as the window's first event when it is one.
#[cfg(feature = "provenance")]
#[cold]
#[inline(never)]
fn record_nonfinite(input: f32, out: Half) {
    WINDOW.with(|w| {
        let mut s = w.borrow_mut();
        s.conversions += 1;
        let kind = if out.is_infinite() {
            if input.is_finite() {
                NonfiniteKind::Overflow
            } else {
                NonfiniteKind::InfPropagated
            }
        } else {
            NonfiniteKind::NanPropagated
        };
        match kind {
            NonfiniteKind::Overflow => s.overflows += 1,
            NonfiniteKind::InfPropagated => s.inf_propagated += 1,
            NonfiniteKind::NanPropagated => s.nan_propagated += 1,
        }
        if s.first.is_none() {
            let site = SITES.with(|stack| {
                let stack = &stack.borrow()[BASE.get()..];
                if stack.is_empty() {
                    UNLABELED.to_string()
                } else {
                    stack.join("/")
                }
            });
            s.first =
                Some(OverflowEvent { site, conversion_index: s.conversions - 1, input, kind });
        }
    });
}

#[cfg(all(test, feature = "provenance"))]
mod tests {
    use super::*;
    use crate::intrinsics::{hadd, hmul};

    #[test]
    fn window_captures_first_overflow_site() {
        begin();
        let a = {
            let _g = site("layer1.spmm");
            hadd(Half::from_f32(400.0), Half::from_f32(500.0)) // fine: 900
        };
        let b = {
            let _g = site("layer2.gemm");
            hmul(Half::from_f32(300.0), Half::from_f32(300.0)) // 9e4 → INF
        };
        let s = take();
        assert!(a.is_finite());
        assert!(b.is_infinite());
        assert_eq!(s.overflows, 1);
        let first = s.first.expect("event recorded");
        assert_eq!(first.site, "layer2.gemm");
        assert_eq!(first.kind, NonfiniteKind::Overflow);
        assert_eq!(first.input, 9.0e4);
    }

    #[test]
    fn propagation_is_distinguished_from_overflow() {
        begin();
        let _g = site("div");
        let inf = Half::from_f32(1.0f32 / 0.0);
        let nan = Half::from_f32(f32::NAN);
        let s = take();
        assert!(inf.is_infinite() && nan.is_nan());
        assert_eq!(s.overflows, 0);
        assert_eq!(s.inf_propagated, 1);
        assert_eq!(s.nan_propagated, 1);
        assert_eq!(s.first.unwrap().kind, NonfiniteKind::InfPropagated);
    }

    #[test]
    fn inactive_thread_records_nothing() {
        // No begin(): conversions must not accumulate anywhere.
        let _ = Half::from_f32(1e9);
        begin();
        let s = take();
        assert_eq!(s.conversions, 0);
        assert!(s.is_clean());
    }

    #[test]
    fn nested_sites_restore_on_drop() {
        begin();
        {
            let _outer = site("outer");
            {
                let _inner = site("inner");
            }
            let _ = Half::from_f32(1e9); // overflow under "outer" again
        }
        let s = take();
        assert_eq!(s.first.unwrap().site, "outer");
    }

    #[test]
    fn nested_sites_compose_into_a_path() {
        begin();
        {
            let _layer = site("gcn.layer1.aggregate");
            let _kernel = site("cusparse_f16_spmmv");
            let _ = Half::from_f32(1e9);
        }
        let s = take();
        assert_eq!(s.first.unwrap().site, "gcn.layer1.aggregate/cusparse_f16_spmmv");
    }

    #[test]
    fn isolated_window_shields_the_outer_one() {
        begin();
        let _ = Half::from_f32(2.0); // outer: 1 clean conversion
        let (v, inner) = isolated(|| {
            let _ = Half::from_f32(1e9); // inner overflow, invisible outside
            Half::from_f32(3.0)
        });
        let _ = Half::from_f32(4.0); // outer window must still be recording
        let outer = take();
        assert_eq!(v.to_f32(), 3.0);
        assert_eq!(inner.conversions, 2);
        assert_eq!(inner.overflows, 1);
        assert_eq!(outer.conversions, 2);
        assert!(outer.is_clean(), "inner overflow leaked into the outer window");
    }

    #[test]
    fn isolated_without_an_outer_window_leaves_recording_off() {
        let (_, inner) = isolated(|| Half::from_f32(1e9));
        assert_eq!(inner.overflows, 1);
        assert!(!is_active());
        let _ = Half::from_f32(1e9); // not recorded anywhere
        begin();
        let s = take();
        assert_eq!(s.conversions, 0);
    }

    #[test]
    fn merge_adds_counts_and_keeps_the_earliest_first_event() {
        let event = |site: &str| OverflowEvent {
            site: site.to_string(),
            conversion_index: 5,
            input: 1e9,
            kind: NonfiniteKind::Overflow,
        };
        let window = |conversions, overflows, first| Summary {
            conversions,
            overflows,
            inf_propagated: 1,
            nan_propagated: 2,
            first,
        };
        let mut acc = Summary::default();
        acc.merge(window(10, 0, None));
        acc.merge(window(7, 3, Some(event("layer1"))));
        acc.merge(window(5, 1, Some(event("layer2"))));
        assert_eq!(
            (acc.conversions, acc.overflows, acc.inf_propagated, acc.nan_propagated),
            (22, 4, 3, 6)
        );
        assert_eq!(acc.first.map(|e| e.site).as_deref(), Some("layer1"));
        // One window merged into an empty summary is that window.
        let mut one = Summary::default();
        one.merge(window(7, 3, Some(event("layer1"))));
        assert_eq!(format!("{one:?}"), format!("{:?}", window(7, 3, Some(event("layer1")))));
    }

    /// Convert `values[range]`, one conversion each, labelled `a` in the
    /// first half of `values` and `b` in the rest.
    fn convert(values: &[f32], range: std::ops::Range<usize>) {
        for i in range {
            let _g = site(if i < values.len() / 2 { "a" } else { "b" });
            let _ = Half::from_f32(values[i]);
        }
    }

    #[test]
    fn merged_windows_read_as_one_window_over_their_concatenation() {
        let stream: Vec<f32> = (0..24)
            .map(|i| match i {
                9 => 1e9,
                13 => f32::NAN,
                17 => f32::INFINITY,
                _ => i as f32,
            })
            .collect();
        for clean_prefix in [0, 10, 14, 18, 24] {
            // Values before `clean_prefix` that were non-finite become
            // finite, so the first event moves later (or vanishes).
            let values: Vec<f32> = stream
                .iter()
                .enumerate()
                .map(|(i, &v)| if i < clean_prefix { i as f32 } else { v })
                .collect();
            begin();
            convert(&values, 0..values.len());
            let whole = format!("{:?}", take());
            for cuts in [vec![12], vec![5, 12, 20], vec![0, 9, 10, 24], (0..=24).collect()] {
                let mut merged = Summary::default();
                let mut from = 0;
                for &to in cuts.iter().chain([values.len()].iter()) {
                    begin();
                    convert(&values, from..to);
                    merged.merge(take());
                    from = to;
                }
                assert_eq!(format!("{merged:?}"), whole, "prefix {clean_prefix} cuts {cuts:?}");
            }
        }
    }

    #[test]
    fn windowed_work_on_another_thread_credits_like_a_sequential_run() {
        let values: Vec<f32> = (0..40).map(|i| if i == 31 { -7e4 } else { i as f32 }).collect();
        let _layer = site("layer");
        let _kernel = site("kernel");
        begin();
        convert(&values, 0..values.len());
        let sequential = take();

        begin();
        convert(&values, 0..4);
        let sites = open_sites().expect("a window is open");
        assert_eq!(sites, ["layer", "kernel"]);
        for from in (4..values.len()).step_by(9) {
            let (sites, values) = (sites.clone(), values.clone());
            let ((), window) = std::thread::spawn(move || {
                assert!(!is_active(), "a pool worker has no window of its own");
                let out = windowed(&sites, || convert(&values, from..(from + 9).min(values.len())));
                assert!(!is_active() && open_sites().is_none());
                out
            })
            .join()
            .unwrap();
            credit(window);
        }
        let credited = take();
        assert_eq!(format!("{credited:?}"), format!("{sequential:?}"));
        let first = credited.first.expect("the overflow is recorded");
        assert_eq!(first.conversion_index, 31);
        assert_eq!(first.site, "layer/kernel/b");
    }

    #[test]
    fn windowed_on_the_calling_thread_hides_and_restores_its_labels() {
        begin();
        let _outer = site("outer");
        let sites = open_sites().unwrap();
        let ((), inner) = windowed(&sites, || {
            assert_eq!(open_sites().unwrap(), ["outer"], "labels are not doubled");
            let _ = Half::from_f32(1e9);
        });
        let _ = Half::from_f32(2e9);
        let outer = take();
        assert_eq!(inner.first.as_ref().unwrap().site, "outer");
        assert_eq!(outer.conversions, 1, "the inner conversion stays in its own window");
        assert_eq!(outer.first.unwrap().site, "outer");
        // With no window open there is nothing to carry or credit into.
        assert!(open_sites().is_none());
        credit(inner);
        begin();
        assert_eq!(take().conversions, 0);
    }

    #[test]
    fn take_resets_the_window() {
        begin();
        let _ = Half::from_f32(1e9);
        let first = take();
        assert_eq!(first.overflows, 1);
        begin();
        let second = take();
        assert_eq!(second.conversions, 0);
        assert!(second.is_clean());
    }
}
