"""Monte Carlo quantum-jump unraveling of the block rate equation.

Test oracle only (the package deliberately does not ship an unraveling).
Trajectories are pure system states tagged with a configurational label;
between jumps they evolve under the per-label nonhermitian effective
Hamiltonian, waiting times are sampled by bisecting the survival norm, and
jump channels split into counted emissions (own-block gamma_R and cross
gamma_cross recycling) and uncounted label hops (phi). All trajectories
advance in lockstep through vectorized numpy rounds.
"""
import numpy as np

import fluorospec as fs
from generator_oracle import block_hamiltonians


def sample_counts(spec, t_final, n_trajectories, seed, bisect_iters=48):
    """Counted emissions per trajectory up to t_final, steady-state start."""
    rng = np.random.default_rng(seed)
    r = spec.r_max
    gam = spec.gamma
    phi = spec.phi
    gcross = spec.gamma_cross
    phi_loss = phi.sum(axis=0)
    gtilde = spec.effective_decays()

    h = block_hamiltonians(spec)
    evals = np.empty((r, 2), complex)
    evecs = np.empty((r, 2, 2), complex)
    evinv = np.empty((r, 2, 2), complex)
    for lab in range(r):
        heff = h[lab].copy()
        heff[1, 1] -= 0.5j * gtilde[lab]
        heff -= 0.5j * phi_loss[lab] * np.eye(2)
        w, v = np.linalg.eig(heff)
        evals[lab], evecs[lab], evinv[lab] = w, v, np.linalg.inv(v)

    st = fs.steady_state(fs.build_generator(spec))
    pops = np.real(st.blocks[:, 0, 0] + st.blocks[:, 1, 1])
    label = rng.choice(r, size=n_trajectories, p=pops / pops.sum())
    psi = np.empty((n_trajectories, 2), complex)
    for lab in range(r):
        mask = label == lab
        if not mask.any():
            continue
        w, v = np.linalg.eigh(st.blocks[lab] / pops[lab])
        w = np.clip(np.real(w), 0.0, None)
        pick = rng.choice(2, size=mask.sum(), p=w / w.sum())
        psi[mask] = v[:, pick].T

    t = np.zeros(n_trajectories)
    counts = np.zeros(n_trajectories, dtype=np.int64)
    active = np.ones(n_trajectories, dtype=bool)

    def propagate(lab, states, tau):
        c = np.einsum("nij,nj->ni", evinv[lab], states)
        c = c * np.exp(-1j * evals[lab] * tau[:, None])
        return np.einsum("nij,nj->ni", evecs[lab], c)

    rounds = 0
    while active.any():
        rounds += 1
        if rounds > 100000:
            raise RuntimeError("jump sampling did not terminate")
        idx = np.flatnonzero(active)
        u = rng.random(idx.size)
        t_rem = t_final - t[idx]
        surv = (np.abs(propagate(label[idx], psi[idx], t_rem)) ** 2).sum(axis=1)
        done = surv >= u
        active[idx[done]] = False
        t[idx[done]] = t_final
        j = idx[~done]
        if j.size == 0:
            continue
        lab, states, target = label[j], psi[j], u[~done]
        lo = np.zeros(j.size)
        hi = t_final - t[j]
        for _ in range(bisect_iters):
            mid = 0.5 * (lo + hi)
            s = (np.abs(propagate(lab, states, mid)) ** 2).sum(axis=1)
            later = s > target
            lo = np.where(later, mid, lo)
            hi = np.where(later, hi, mid)
        tau = 0.5 * (lo + hi)
        amp = propagate(lab, states, tau)
        pb2 = np.abs(amp[:, 1]) ** 2
        norm2 = (np.abs(amp) ** 2).sum(axis=1)
        weights = np.empty((j.size, 2 * r))
        for dest in range(r):
            own = np.where(lab == dest, gam[lab], 0.0)
            weights[:, dest] = (own + gcross[dest, lab] * (lab != dest)) * pb2
            weights[:, r + dest] = phi[dest, lab] * norm2
        csum = np.cumsum(weights, axis=1)
        pick = (rng.random(j.size)[:, None] * csum[:, -1:] > csum).sum(axis=1)
        emitted = pick < r
        dest = np.where(emitted, pick, pick - r)
        counts[j] += emitted
        label[j] = dest
        psi[j] = np.where(emitted[:, None],
                          np.array([1.0 + 0.0j, 0.0j])[None, :],
                          amp / np.sqrt(norm2)[:, None])
        t[j] += tau
    return counts


def histogram(counts, n_max):
    """Empirical P_0..P_nmax."""
    return np.bincount(counts, minlength=n_max + 1)[:n_max + 1] / len(counts)
