//! Test staging for the engine's tests.

use crate::{ServeHandle, Ticket};
use dlframe::{DlError, Layer};
use std::sync::{Arc, Condvar, Mutex};
use tensor::{Tensor, Workspace};

/// An identity layer whose inference forward blocks while the gate is
/// shut. Tests stage their queues with it instead of with
/// wall-clock: a worker parked inside a forward is busy for exactly as
/// long as the test says, so requests submitted meanwhile stay queued
/// — to coalesce or to fill the engine to capacity.
#[derive(Clone)]
pub(crate) struct Gate(Arc<GateState>);

struct GateState {
    /// `(open, forwards waiting at the gate)`.
    state: Mutex<(bool, usize)>,
    changed: Condvar,
}

impl Gate {
    pub fn shut() -> Self {
        Gate(Arc::new(GateState {
            state: Mutex::new((false, 0)),
            changed: Condvar::new(),
        }))
    }

    /// Submits one request and returns once a worker is parked at the
    /// gate with it: from here on that worker pulls nothing.
    pub fn plug(&self, handle: &ServeHandle, features: Vec<f32>) -> Ticket {
        let ticket = handle.submit(features).unwrap();
        let state = self.0.state.lock().unwrap();
        drop(self.0.changed.wait_while(state, |s| s.1 == 0).unwrap());
        ticket
    }

    pub fn open(&self) {
        self.0.state.lock().unwrap().0 = true;
        self.0.changed.notify_all();
    }
}

impl Layer for Gate {
    fn name(&self) -> &'static str {
        "gate"
    }

    fn forward(&mut self, x: &Tensor, _: bool, ws: &mut Workspace) -> Result<Tensor, DlError> {
        Ok(ws.alloc_copy(x))
    }

    fn forward_infer(&self, x: &Tensor, ws: &mut Workspace) -> Result<Tensor, DlError> {
        let mut state = self.0.state.lock().unwrap();
        state.1 += 1;
        self.0.changed.notify_all();
        state = self.0.changed.wait_while(state, |s| !s.0).unwrap();
        state.1 -= 1;
        drop(state);
        Ok(ws.alloc_copy(x))
    }

    fn backward(
        &mut self,
        _input: &Tensor,
        _output: &Tensor,
        grad_out: &Tensor,
        input_grad: bool,
        ws: &mut Workspace,
    ) -> Result<Option<Tensor>, DlError> {
        Ok(input_grad.then(|| ws.alloc_copy(grad_out)))
    }
}
