//! Explicit call-stack maintenance for injection-point stack traces.
//!
//! §5: "While executing a test that injects fault φ, AFEX captures the
//! stack trace corresponding to φ's injection point." The real system reads
//! the trace from the process; our in-process targets maintain it
//! explicitly, pushing a frame on function entry via an RAII [`FrameGuard`]
//! that pops on scope exit — including unwinding panics, so crash traces
//! stay accurate.

use std::cell::RefCell;

/// A call stack of function-name frames.
///
/// Interior mutability keeps the push/pop API usable behind shared
/// references, matching how the injection environment is threaded through
/// target code; targets are single-threaded per test execution. Frame
/// names are static, so pushing a frame copies no string; owned names are
/// built only when an injection takes a [`snapshot`](CallStack::snapshot).
///
/// # Examples
///
/// ```
/// use afex_inject::CallStack;
///
/// let stack = CallStack::new();
/// {
///     let _main = stack.push("main");
///     let _f = stack.push("mi_create");
///     assert_eq!(stack.snapshot(), vec!["main", "mi_create"]);
/// }
/// assert!(stack.snapshot().is_empty());
/// ```
#[derive(Debug, Default)]
pub struct CallStack {
    frames: RefCell<Vec<&'static str>>,
}

impl CallStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        CallStack::default()
    }

    /// Pushes a frame; the frame pops when the returned guard drops.
    pub fn push(&self, name: &'static str) -> FrameGuard<'_> {
        self.frames.borrow_mut().push(name);
        FrameGuard { stack: self }
    }

    /// The current frames, outermost first.
    pub fn snapshot(&self) -> Vec<String> {
        self.frames.borrow().iter().map(|&f| f.to_owned()).collect()
    }

    /// Current stack depth.
    pub fn depth(&self) -> usize {
        self.frames.borrow().len()
    }

    /// Renders the stack as `main>parse>mi_create`, the flat form used for
    /// Levenshtein-based redundancy clustering.
    pub fn render(&self) -> String {
        self.frames.borrow().join(">")
    }
}

/// RAII guard popping one [`CallStack`] frame on drop.
#[derive(Debug)]
pub struct FrameGuard<'s> {
    stack: &'s CallStack,
}

impl Drop for FrameGuard<'_> {
    fn drop(&mut self) {
        let popped = self.stack.frames.borrow_mut().pop();
        debug_assert!(popped.is_some(), "frame guard dropped on empty stack");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_nesting() {
        let s = CallStack::new();
        let _a = s.push("a");
        {
            let _b = s.push("b");
            assert_eq!(s.depth(), 2);
            assert_eq!(s.render(), "a>b");
        }
        assert_eq!(s.depth(), 1);
        assert_eq!(s.render(), "a");
    }

    #[test]
    fn snapshot_is_outermost_first() {
        let s = CallStack::new();
        let _a = s.push("outer");
        let _b = s.push("inner");
        assert_eq!(s.snapshot(), vec!["outer", "inner"]);
    }

    #[test]
    fn guards_pop_in_any_drop_order_scope() {
        let s = CallStack::new();
        {
            let _x = s.push("x");
            let _y = s.push("y");
            // Both dropped at scope end, in reverse declaration order.
        }
        assert_eq!(s.depth(), 0);
    }

    #[test]
    fn frames_pop_during_unwind() {
        let s = CallStack::new();
        let _outer = s.push("outer");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _inner = s.push("inner");
            panic!("simulated crash");
        }));
        assert!(result.is_err());
        // The inner frame unwound; the outer frame survives.
        assert_eq!(s.render(), "outer");
    }

    #[test]
    fn empty_render() {
        assert_eq!(CallStack::new().render(), "");
    }
}
