"""Verification of CLI outputs against the independent references.

``Checker(inv)`` computes the reference values for one invocation once;
``checker(csv_text)`` then returns the list of problems found in one output
(empty when it passes).
"""
from __future__ import annotations

import numpy as np

import reference as ref

# Agreement demanded between program and reference. The eigendecomposition
# reference loses about cond(V) * eps; everything else is near machine
# precision, so these sit well above rounding and far below a real defect.
RTOL_EIG = 1e-9
RTOL = 1e-10


def parse_csv(text: str):
    """(metadata dict, rows as a 2-D float array)."""
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif line:
            body.append(line)
    header = body[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in body[1:]])
    return meta, rows.reshape(-1, len(header))


def perturb(text: str) -> str:
    """Negative control: shift the first value column of the middle row by
    1e-3 of that column's largest magnitude."""
    lines = text.splitlines()
    data = [i for i, line in enumerate(lines)
            if line and not line.startswith("#")][1:]
    col = np.array([abs(float(lines[i].split(",")[1])) for i in data])
    i = data[len(data) // 2]
    cells = lines[i].split(",")
    cells[1] = f"{float(cells[1]) + 1e-3 * max(col.max(), 1e-300):.16e}"
    lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _close(name, got, want, rtol, scale=None):
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != reference {want.shape}"]
    scale = np.max(np.abs(want)) if scale is None else scale
    err = np.max(np.abs(got - want)) if got.size else 0.0
    if not err <= rtol * max(scale, 1e-300):
        return [f"{name}: max error {err:.3e} > {rtol:.0e} * {scale:.3e}"]
    return []


class Checker:
    def __init__(self, inv):
        self.inv = inv
        self.task = inv.task
        p = inv.model.params
        self.grid = inv.grid_values() if inv.grid else None
        if self.task in ("mandel-sweep", "lineshape-sweep"):
            models = [ref.Model(p.at_detuning(d)) for d in self.grid]
            self.want = np.array([m.mandel() if self.task == "mandel-sweep"
                                  else m.intensity for m in models])
            return
        m = ref.Model(p)
        self.model = m
        if self.task == "steady":
            self.want = np.column_stack([np.arange(m.r), *m.populations()])
        elif self.task == "counting":
            self.want = np.array([ref.counting_pn(m, t, inv.n_max) for t in self.grid])
        else:
            s = ref.Spectral(m)
            fn = {"spectrum": s.spectrum, "c1": s.c1, "c2": s.c2, "g2": s.g2}
            self.want = fn[self.task](self.grid)
            sq = np.sqrt(p.gamma + p.gamma_cross.sum(axis=0))
            rho_ab = m.rho.reshape(-1, 2, 2).transpose(0, 2, 1)[:, 0, 1]
            self.coherent = float(abs(sq @ rho_ab) ** 2)

    def __call__(self, text: str) -> list[str]:
        try:
            meta, rows = parse_csv(text)
        except (ValueError, IndexError) as exc:
            return [f"unreadable CSV: {exc}"]
        if not np.all(np.isfinite(rows)):
            return ["non-finite value in output"]
        if self.grid is not None:
            if rows.shape[0] != self.grid.size:
                return [f"{rows.shape[0]} rows for {self.grid.size} grid points"]
            bad = _close("grid", rows[:, 0], self.grid, 1e-15)
            if bad:
                return bad
        return getattr(self, "_" + self.task.replace("-", "_"))(meta, rows)

    def _steady(self, meta, rows):
        return _close("steady", rows, self.want, RTOL, scale=1.0)

    def _spectrum(self, meta, rows):
        m = self.model
        return (_close("s_inc", rows[:, 1], self.want, RTOL_EIG)
                + _close("stationary_intensity",
                         float(meta.get("stationary_intensity", "nan")),
                         m.intensity, RTOL)
                + _close("coherent_weight", float(meta.get("coherent_weight", "nan")),
                         self.coherent, RTOL, scale=m.intensity))

    def _c1(self, meta, rows):
        got = rows[:, 1] + 1j * rows[:, 2]
        return (_close("c1", got, self.want, RTOL_EIG)
                + _close("c1(0) vs I_st", got[0], self.model.intensity, RTOL))

    def _c2(self, meta, rows):
        return _close("c2", rows[:, 1], self.want, RTOL_EIG)

    def _g2(self, meta, rows):
        return (_close("g2", rows[:, 1], self.want, RTOL_EIG)
                + _close("g2(tau_max) - 1", rows[-1, 1], 1.0, 1e-6))

    def _counting(self, meta, rows):
        n = np.arange(self.inv.n_max + 1)
        mean, second, rem, pn = rows[:, 1], rows[:, 2], rows[:, 4], rows[:, 5:]
        out = (_close("P_n", pn, self.want, RTOL, scale=1.0)
               + _close("sum P_n + remainder", pn.sum(axis=1) + rem,
                        np.ones_like(rem), 1e-12, scale=1.0)
               + _close("mean vs I_st t", mean, self.model.intensity * self.grid, RTOL))
        slack = 100.0 * np.abs(rem) + 1e-9
        if np.any(np.abs(pn @ n - mean) > slack):
            out.append("sum n P_n differs from mean by more than 100 * remainder")
        if np.any(np.abs(pn @ (n * (n - 1)) - second) > 10 * slack):
            out.append("sum n(n-1) P_n differs from the second factorial moment")
        return out

    def _mandel_sweep(self, meta, rows):
        out = _close("q_st", rows[:, 1], self.want, RTOL)
        if self.inv.model.name == "fig5":
            p = self.inv.model.params
            far = int(np.argmax(np.abs(self.grid)))
            limit = ref.mandel_detuning_limit(p.gamma, p.gamma_cross)
            out += _close("q_st at largest |delta| vs detuning limit",
                          rows[far, 1], limit, 0.02)
        return out

    def _lineshape_sweep(self, meta, rows):
        out = _close("intensity", rows[:, 1], self.want, RTOL)
        if self.inv.model.name == "single":
            p = self.inv.model.params
            closed = ref.line_shape_closed_form(p.gamma[0], p.omega_rabi[0], self.grid)
            out += _close("intensity vs closed form", rows[:, 1], closed, 1e-12)
        return out
