"""Tour of the tensor engine: tape recording, gradients, and Adam.

Run:  python demos/01_tensor_engine.py
"""

import numpy as np

from ielab import tensorcore as tc

# ---------------------------------------------------------------- recording
# Ops run as plain numpy until a tape is active; inside a tape they record
# themselves so one reverse sweep yields every parameter's gradient, keyed
# by the parameter itself.

rng = np.random.default_rng(0)
w = tc.parameter(rng.normal(size=(4, 3)))
b = tc.parameter(np.zeros(3))
x = tc.Tensor(rng.normal(size=(8, 4)))

tape = tc.Tape()
with tape:
    h = tc.gelu(tc.linear(x, w, b))
    loss = tc.cross_entropy_masked(h, [0, 1, 2, 0, 1, 2, 0, 1],
                                   [True] * 8)
grads = tc.backward(loss, tape)
print(f"loss = {loss.item():.4f}")
print(f"grad w shape {grads[w].shape}, grad b {grads[b]}")

# ------------------------------------------------- check against finite diffs
h_step = 1e-5
i = (2, 1)
analytic = grads[w][i]


def loss_value():
    return tc.cross_entropy_masked(tc.gelu(tc.linear(x, w, b)),
                                   [0, 1, 2, 0, 1, 2, 0, 1], [True] * 8).item()


orig = w.data[i]
w.data[i] = orig + h_step
f_plus = loss_value()
w.data[i] = orig - h_step
f_minus = loss_value()
w.data[i] = orig
fd = (f_plus - f_minus) / (2 * h_step)
print(f"analytic dL/dw{i} = {analytic:.8f}, finite difference = {fd:.8f}")

# ------------------------------------------------------------------- Adam
# Minimize 0.5*||p||^2; the gradient is p itself, so Adam should walk the
# parameter toward zero at roughly lr per step (sign-like updates).
p = {"p": tc.parameter(np.array([1.0, -2.0, 0.5]))}
state = tc.AdamState(lr=0.1)
for step in range(25):
    tc.adam_step(p, {"p": p["p"].data.copy()}, state)
print(f"after {state.step} Adam steps: p = {np.round(p['p'].data, 4)}")

# ------------------------------------------------------------- determinism
def run_once():
    t = tc.Tape()
    with t:
        h = tc.dropout(tc.gelu(tc.linear(x, w, b)), 0.5,
                       np.random.default_rng(1))
        out = tc.cross_entropy_masked(h, [0, 1, 2, 0, 1, 2, 0, 1], [True] * 8)
    return out.item(), tc.backward(out, t)[w]


v1, g1 = run_once()
v2, g2 = run_once()
print(f"bitwise deterministic forward/backward: "
      f"{v1 == v2 and np.array_equal(g1, g2)}")
