"""Correctness checks made apart from the program.

Every check recomputes what it needs with plain numpy from the benchmark's
own inputs, or uses a property the method guarantees (a drawn spectrum, an
engineered rank, a closed form). Bounds are the benchmark's own, never the
program's thresholds, so a later change that tightens the program's
tolerances cannot make the benchmark fail. Each function returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json

import numpy as np

from inputs import Drawn

EPS = float(np.finfo(float).eps)
# Safety factor over the first-order rounding estimate n * eps * (condition).
# Measured errors at n = 256 sit about four orders of magnitude below it,
# while a perturbation of 1e-6 in any factor lands far above it.
SAFETY = 100.0


def tolerance(n: int, condition: float = 1.0) -> float:
    return SAFETY * n * EPS * condition


def fro(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def cond(m: np.ndarray) -> float:
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[0] / s[-1]) if s[-1] > 0 else np.inf


def _relative(label: str, value: float, bound: float) -> list[str]:
    if not value <= bound:  # also catches NaN
        return [f"{label}: relative residual {value:.3e} above {bound:.3e}"]
    return []


def cluster_problems(found, drawn: Drawn, label: str) -> list[str]:
    """Program clusters (value, multiplicity) against the drawn spectrum.

    Bauer-Fike: each computed eigenvalue of fl(V D V^-1) lies within
    kappa(V) * ||E|| of a drawn value, with ||E|| covering the rounding of
    forming H (kappa(V) * max|lambda| * n * eps) and of the eigensolver.
    A cluster's value is the mean of its members, so it obeys the same bound.
    """
    spectrum = drawn.spectrum
    values = np.array([v for v, _ in spectrum.clusters], dtype=complex)
    mults = [m for _, m in spectrum.clusters]
    n = sum(mults)
    lam = max(1.0, float(np.max(np.abs(values))))
    radius = tolerance(n, drawn.sim.kappa**2 * lam)
    if radius >= spectrum.sep / 2:
        return [f"{label}: Bauer-Fike radius {radius:.2e} does not separate clusters"]
    problems = []
    used = np.zeros(values.size, dtype=bool)
    for value, mult in found:
        dist = np.where(used, np.inf, np.abs(values - complex(value)))
        k = int(np.argmin(dist))
        if not dist[k] <= radius:
            problems.append(f"{label}: cluster {complex(value):.6g} is no drawn value")
            continue
        used[k] = True
        if mult != mults[k]:
            problems.append(
                f"{label}: cluster {values[k]:.6g} has multiplicity {mult}, drawn {mults[k]}"
            )
    if not used.all():
        problems.append(f"{label}: {int((~used).sum())} drawn clusters were not found")
    return problems


def factorization_problems(h1, h2, l, eta1, eta2, label: str) -> list[str]:
    """H1 = L# L, H2 = L L# and L H1 = H2 L, with L# = eta1^-1 L^H eta2
    rebuilt here by a linear solve (not taken from the program's inverse)."""
    lsharp = np.linalg.solve(eta1, l.conj().T @ eta2)
    bound = tolerance(h1.shape[0], cond(eta1) * cond(eta2))
    scale = max(fro(h1), fro(h2))
    return (
        _relative(f"{label}: H1 - L# L", fro(h1 - lsharp @ l) / fro(h1), bound)
        + _relative(f"{label}: H2 - L L#", fro(h2 - l @ lsharp) / fro(h2), bound)
        + _relative(
            f"{label}: L H1 - H2 L", fro(l @ h1 - h2 @ l) / (fro(l) * scale), bound
        )
    )


def metric_problems(h, eta, label: str) -> list[str]:
    """eta is Hermitian and eta H = H^H eta."""
    bound = tolerance(h.shape[0], cond(eta))
    return _relative(
        f"{label}: eta - eta^H", fro(eta - eta.conj().T) / fro(eta), bound
    ) + _relative(
        f"{label}: eta H - H^H eta",
        fro(eta @ h - h.conj().T @ eta) / (fro(eta) * fro(h)),
        bound,
    )


def witten_problems(delta: int, d0_plus: int, zero: int, label: str) -> list[str]:
    """Isospectral factored pair: both sectors keep the drawn zero modes."""
    problems = []
    if delta != 0:
        problems.append(f"{label}: Witten index {delta}, expected 0")
    if d0_plus != zero:
        problems.append(f"{label}: d0_plus {d0_plus}, drawn zero multiplicity {zero}")
    return problems


def pair_problems(out, first: Drawn, second: Drawn) -> list[str]:
    """All checks for one pair through the library pipeline."""
    problems = []
    for k, (sys_, drawn) in enumerate(((out.sys1, first), (out.sys2, second)), 1):
        found = [(c.value, c.multiplicity) for c in sys_.clusters]
        problems += cluster_problems(found, drawn, f"H{k} clusters")
        if out.tags[k - 1] != drawn.spectrum.tag:
            problems.append(f"H{k}: tag {out.tags[k - 1]}, drawn {drawn.spectrum.tag}")
    fact = out.fact
    eta1, eta2 = fact.eta1.matrix, fact.eta2.matrix
    problems += factorization_problems(first.h, second.h, fact.matrix, eta1, eta2, "pair")
    problems += metric_problems(first.h, eta1, "eta1")
    problems += metric_problems(second.h, eta2, "eta2")
    problems += witten_problems(
        out.witten.delta, out.witten.d0_plus, first.spectrum.zero_multiplicity, "pair"
    )
    return problems


# --- CLI reports -------------------------------------------------------------


def payload_matrix(payload: dict) -> np.ndarray:
    """Read the matrix schema with numpy (independent of the program's parser)."""
    entries = np.asarray(payload["entries"], dtype=float)
    m = entries[..., 0] + 1j * entries[..., 1]
    if m.shape != (payload["rows"], payload["cols"]):
        raise ValueError(f"matrix shape {m.shape} disagrees with its header")
    return m


def _eigen_problems(m: np.ndarray, omega: float, label: str) -> list[str]:
    eig = np.sort_complex(np.linalg.eigvals(m))
    bound = tolerance(2, 1.0 + omega**2)
    worst = float(np.max(np.abs(eig - np.array([-omega, omega]))))
    if not worst <= bound:
        return [f"{label}: eigenvalues {eig} are not +-{omega}"]
    return []


def cli_problems(case, code: int, text: str) -> list[str]:
    """Checks for one CLI call: exit code, report, and the command's result."""
    label = " ".join(case.argv[:1] + tuple(a for a in case.argv[1:] if a.startswith("--")))
    if code != 0:
        return [f"{label}: exit code {code}"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"{label}: report does not parse: {exc}"]
    if report.get("passed") is not True:
        return [f"{label}: report says passed={report.get('passed')}"]
    if report.get("command") != case.argv[0]:
        return [f"{label}: report is for {report.get('command')}"]
    return _RESULT_CHECKS[case.expect["kind"]](case, report["result"], label)


def _spectrum(case, result, label):
    drawn = case.expect["drawn"]
    found = [(complex(*c["value"]), c["multiplicity"]) for c in result["clusters"]]
    problems = cluster_problems(found, drawn, label)
    if result["tag"] != drawn.spectrum.tag:
        problems.append(f"{label}: tag {result['tag']}, drawn {drawn.spectrum.tag}")
    return problems


def inertia_problems(eta: np.ndarray, negatives: int, label: str) -> list[str]:
    """eta is invertible with `negatives` negative eigenvalues.

    By Sylvester's law eta = phi B phi^H has the inertia of B: one -1 per
    requested negative sign, and one negative eigenvalue per conjugate-pair
    eigenvector, since each pair block [[0, I], [I, 0]] has inertia (m, m).
    """
    w = np.linalg.eigvalsh((eta + eta.conj().T) / 2)
    smallest = float(np.min(np.abs(w)))
    bound = tolerance(eta.shape[0]) * float(np.max(np.abs(w)))
    if not smallest > bound:
        return [f"{label}: eta is singular (eigenvalue {smallest:.3e} within {bound:.3e} of 0)"]
    found = int(np.sum(w < 0))
    if found != negatives:
        return [f"{label}: eta has {found} negative eigenvalues, expected {negatives}"]
    return []


def _eta(case, result, label):
    eta = payload_matrix(result["eta"])
    problems = metric_problems(case.expect["h"], eta, label)
    requested = [a for a in case.argv if a.startswith("--signs=")]
    signs = [int(s) for s in requested[0].split("=", 1)[1].split(",")] if requested else []
    if requested and result["signs"] != signs:
        problems.append(f"{label}: signs {result['signs']}, requested {signs}")
    paired = sum(m for value, m in case.expect["drawn"].spectrum.clusters if value.imag > 0)
    return problems + inertia_problems(eta, signs.count(-1) + paired, label)


def _factored(h1, h2, result, label):
    l = payload_matrix(result["l"])
    eta1, eta2 = payload_matrix(result["eta1"]), payload_matrix(result["eta2"])
    return factorization_problems(h1, h2, l, eta1, eta2, label)


def _factor(case, result, label):
    h = case.expect["h"]
    return _factored(h, h, result, label)


def _intertwine(case, result, label):
    e = case.expect
    wit = result["witten"]
    return _factored(e["h1"], e["h2"], result, label) + witten_problems(
        wit["delta"], wit["d0_plus"], e["zero"], label
    )


def _psusy(case, result, label):
    e = case.expect
    d, eta_plus, eta_minus = e["d"], e["eta_plus"], e["eta_minus"]
    d_sharp = np.linalg.solve(eta_plus, d.conj().T @ eta_minus)
    bound = tolerance(max(d.shape), cond(eta_plus) * cond(eta_minus))
    problems = []
    for key, want in (
        ("d_sharp", d_sharp),
        ("h_plus", 0.5 * d_sharp @ d),
        ("h_minus", 0.5 * d @ d_sharp),
    ):
        got = payload_matrix(result[key])
        problems += _relative(f"{label}: {key}", fro(got - want) / fro(want), bound)
    return problems


def _witten(case, result, label):
    rows, cols = case.expect["d"].shape
    rank = case.expect["rank"]
    want = {"d0_plus": cols - rank, "d0_minus": rows - rank, "delta": cols - rows}
    return [
        f"{label}: {key} {result[key]}, expected {value}"
        for key, value in want.items()
        if result[key] != value
    ]


def _twolevel(case, result, label):
    a, b, c = (case.expect[k] for k in "abc")
    e = complex(*result["e"])
    bound = tolerance(2, abs(a) ** 2 + abs(b * c) + 1.0)
    if not abs(e * e - (a * a + b * c)) <= bound:
        return [f"{label}: E^2 = {e * e:.6g}, expected a^2 + bc = {a * a + b * c:.6g}"]
    return []


def _demo(case, result, label):
    omega = case.expect["omega"]
    keys = ("hamiltonian",) if case.expect["which"] == "oscillator" else ("oscillator_h", "spin_h")
    problems = []
    for key in keys:
        problems += _eigen_problems(payload_matrix(result[key]), omega, f"{label} {key}")
    return problems


_RESULT_CHECKS = {
    "spectrum": _spectrum,
    "eta": _eta,
    "factor": _factor,
    "intertwine": _intertwine,
    "psusy": _psusy,
    "witten": _witten,
    "twolevel": _twolevel,
    "demo": _demo,
}
