"""Shared test oracles: finite-difference gradients and t-distribution tails,
plus the two tape ops that only tests use, to reduce outputs to a scalar loss,
the null-style generator config the corpus tests draw from, the name of the
OpenBLAS core whose kernels numpy runs, and a pytest run under another core.

These stay independent of the library code paths they check: gradcheck only
re-runs the caller's forward function, and the t tail integrates the density
formula directly.
"""

import ctypes
import glob
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from ielab import tensorcore as tc
from ielab.synthdocs import GeneratorConfig
from ielab.tensorcore.engine import ShapeError, Tensor, record
from ielab.tensorcore.ops import _unbroadcast


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with broadcasting, recorded on the active tape."""
    ad, bd = a.data, b.data
    try:
        out_data = ad * bd
    except ValueError as exc:
        raise ShapeError(f"mul shapes {ad.shape} * {bd.shape}") from exc
    return record(Tensor(out_data), (a, b), _mul_bw, ad, bd)


def _mul_bw(g, need, ad, bd):
    return (_unbroadcast(g * bd, ad.shape) if need[0] else None,
            _unbroadcast(g * ad, bd.shape) if need[1] else None)


def sum_all(x: Tensor) -> Tensor:
    """Sum of every element, as a scalar Tensor recorded on the active tape."""
    return record(Tensor(x.data.sum()), (x,), _sum_all_bw, x.data.shape)


def _sum_all_bw(g, need, shape):
    return (np.full(shape, g, dtype=np.float64),)


def gradcheck(make_loss, named_params, h=1e-5, tol=1e-4, max_samples=24, seed=0):
    """Compare tape gradients against central finite differences.

    make_loss() must rebuild the forward pass deterministically from the
    current parameter values and return a scalar Tensor. Checks up to
    `max_samples` randomly chosen coordinates per parameter. Returns the worst
    relative error seen.
    """
    tape = tc.Tape()
    with tape:
        tape.watch(*named_params.values())
        loss = make_loss()
    grads = tc.backward(loss, tape)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, p in named_params.items():
        analytic = grads[p]
        flat = p.data.ravel()
        n = flat.size
        idxs = np.arange(n) if n <= max_samples else rng.choice(n, max_samples, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = make_loss().item()
            flat[i] = orig - h
            f_minus = make_loss().item()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * h)
            a = analytic.ravel()[i]
            err = abs(a - fd) / max(abs(a), abs(fd), 1.0)
            worst = max(worst, err)
            assert err < tol, (
                f"gradient mismatch for {name}[{i}]: analytic={a!r} fd={fd!r} "
                f"rel_err={err:.3e} (tol {tol})")
    return worst


def t_two_sided_p_oracle(t_stat, df):
    """Two-sided tail of Student's t by numerical integration of the density."""
    if math.isinf(t_stat):
        return 0.0
    c = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)) \
        / math.sqrt(df * math.pi)

    def pdf(x):
        return c * (1.0 + x * x / df) ** (-(df + 1) / 2.0)

    tail, _ = integrate.quad(pdf, abs(t_stat), np.inf)
    return 2.0 * tail


def bilinear_point_oracle(fmap, y, x):
    """Zero-padded bilinear interpolation at continuous feature coords.

    Cell (r, c) has its center at (r + 0.5, c + 0.5); queries outside the map
    read zeros. fmap is (C, H, W); returns a length-C vector.
    """
    C, H, W = fmap.shape
    u = y - 0.5
    v = x - 0.5
    r0 = math.floor(u)
    c0 = math.floor(v)
    du = u - r0
    dv = v - c0
    out = np.zeros(C)
    for rr, wr in ((r0, 1.0 - du), (r0 + 1, du)):
        for cc, wc in ((c0, 1.0 - dv), (c0 + 1, dv)):
            if 0 <= rr < H and 0 <= cc < W and wr * wc != 0.0:
                out += wr * wc * fmap[:, rr, cc]
    return out


def uninformative(cfg: GeneratorConfig) -> GeneratorConfig:
    """`cfg` with label-independent style draws: each style probability
    equals the noise rate."""
    return replace(cfg, p_bold_entity=cfg.noise_rate,
                   p_table_amount=cfg.noise_rate,
                   p_largefont_name=cfg.noise_rate,
                   p_color_total=cfg.noise_rate)


def openblas_core() -> str:
    """The CPU core whose kernels numpy's OpenBLAS runs, as
    `scipy_openblas_get_corename64_` reports it, or '' without that symbol.
    OPENBLAS_CORETYPE, read when OpenBLAS loads, can force another core."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_",
                      None)
        if get is not None:
            get.argtypes, get.restype = (), ctypes.c_char_p
            return get().decode()
    return ""


def run_on_core(core: str, path, select: str) -> subprocess.CompletedProcess:
    """`pytest -k select` on the test file `path`, run in a child process
    whose OpenBLAS runs `core`'s kernels (forced with OPENBLAS_CORETYPE)
    instead of the ones it picks for this CPU; skips the calling test when
    OpenBLAS does not run them here."""
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_CORETYPE": core,
           "PYTHONPATH": f"{tests.parent / 'src'}{os.pathsep}{tests}"}
    ran = subprocess.run(
        [sys.executable, "-c",
         "from conftest import openblas_core; print(openblas_core())"],
        capture_output=True, text=True, check=True, env=env).stdout.strip()
    if ran != core:
        pytest.skip(f"OpenBLAS does not run {core} kernels here ({ran!r})")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(path), "-k", select],
        capture_output=True, text=True, env=env, cwd=tests.parent)
