"""Result objects are frozen, hold read-only arrays, and derive their caches
afresh; the eigensystem holds the caller's matrix without copying it."""

import dataclasses
import importlib
import inspect
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import pseudoherm
from pseudoherm.intertwine import match_spectra, self_factorization
from pseudoherm.linalg import cond
from pseudoherm.metric import EtaOperator, antilinear_symmetry
from pseudoherm.spectral import decompose
from pseudoherm.susy import assemble
from pseudoherm.twolevel import TwoLevelParams, oscillator_demo, spin_intertwine_demo

from support import matrix_with_spectrum, positive_definite

MODULES = [
    "cli", "errors", "intertwine", "linalg", "metric", "report", "spectral", "susy", "twolevel"
]


def exported_dataclasses():
    """Every dataclass in the package namespace or a submodule's `__all__`."""
    found = {}
    namespaces = [(pseudoherm, dir(pseudoherm))]
    for name in MODULES:
        module = importlib.import_module(f"pseudoherm.{name}")
        namespaces.append((module, getattr(module, "__all__", [])))
    for module, names in namespaces:
        for name in names:
            obj = getattr(module, name)
            if inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def test_every_exported_dataclass_is_frozen():
    classes = exported_dataclasses()
    assert "pseudoherm.spectral.BiorthonormalSystem" in classes
    thawed = sorted(name for name, cls in classes.items() if not cls.__dataclass_params__.frozen)
    assert thawed == []


def test_constructors_take_exactly_the_init_fields():
    # no InitVar: a constructor argument that is not a field is bookkeeping
    # the object does not hold
    mismatched = {}
    for name, cls in exported_dataclasses().items():
        params = list(inspect.signature(cls).parameters)
        if params != [f.name for f in dataclasses.fields(cls) if f.init]:
            mismatched[name] = params
    assert mismatched == {}


WITH_ARRAYS = ["sys", "eta", "fact", "intertwiner", "antilinear", "oscillator", "spin"]


@pytest.fixture(scope="module")
def results():
    rng = np.random.default_rng(4)
    h = matrix_with_spectrum([2.0, -1.0, 1 + 1j, 1 - 1j], rng)
    sys = decompose(h)
    fact = self_factorization(sys)
    return {
        "sys": (sys, ["h", "psi", "phi"]),
        "eta": (fact.eta1, ["matrix", "inverse"]),
        "fact": (fact, ["lsharp", "matrix"]),
        "intertwiner": (fact.intertwiner, ["matrix"]),
        "antilinear": (antilinear_symmetry(sys), ["linear_part"]),
        "twolevel": (TwoLevelParams.from_coefficients(1, 1, 1), []),
        "oscillator": (
            oscillator_demo(2.0),
            ["hamiltonian", "psi1", "psi2", "phi1", "phi2", "eta1", "eta1_inv", "eta2",
             "intertwiner", "intertwiner_sharp"],
        ),
        "spin": (
            spin_intertwine_demo(2.0),
            ["oscillator_h", "spin_h", "intertwiner", "intertwiner_sharp"],
        ),
    }


@pytest.mark.parametrize("which", WITH_ARRAYS)
def test_arrays_are_read_only(results, which):
    obj, names = results[which]
    for name in names:
        array = getattr(obj, name)
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            array *= 2.0


@pytest.mark.parametrize("which", WITH_ARRAYS + ["twolevel"])
def test_fields_cannot_be_assigned(results, which):
    obj, names = results[which]
    for field in dataclasses.fields(obj):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, field.name, getattr(obj, field.name))


def test_pairing_and_factorization_fields_cannot_be_assigned(results):
    fact, _ = results["fact"]
    with pytest.raises(FrozenInstanceError):
        fact.intertwiner.pairing.matches = ()
    with pytest.raises(FrozenInstanceError):
        fact.checks = ()


def test_pairing_holds_only_the_systems_and_matches():
    sys = decompose(np.diag([0.0, 1.0]))
    pairing = match_spectra(sys, sys)
    assert [f.name for f in dataclasses.fields(pairing)] == ["system1", "system2", "matches"]


class TestCallerArrays:
    def test_system_holds_a_view_of_the_callers_matrix(self):
        rng = np.random.default_rng(5)
        h = matrix_with_spectrum([1.0, -2.0, 3.0], rng)
        assert h.dtype == complex
        sys = decompose(h)
        assert np.shares_memory(sys.h, h)
        assert h.flags.writeable
        assert not sys.h.flags.writeable

    def test_real_input_is_held_as_a_complex_copy(self):
        h = np.diag([1.0, 2.0])
        sys = decompose(h)
        assert sys.h.dtype == complex and not np.shares_memory(sys.h, h)
        np.testing.assert_array_equal(sys.h, h)

    def test_assemble_copies_d(self):
        rng = np.random.default_rng(6)
        d = rng.standard_normal((3, 4)) + 0j
        psys = assemble(d, EtaOperator.identity(4), EtaOperator.identity(3))
        before = psys.d.copy()
        d[0, 0] += 1.0
        np.testing.assert_array_equal(psys.d, before)
        assert d.flags.writeable

    def test_from_matrix_copies_the_metric(self):
        m = positive_definite(3, np.random.default_rng(7))
        eta = EtaOperator.from_matrix(m)
        before = eta.matrix.copy()
        m[0, 0] += 1.0
        np.testing.assert_array_equal(eta.matrix, before)
        assert m.flags.writeable

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_layout_does_not_change_the_clusters(self, layout):
        rng = np.random.default_rng(8)
        h = matrix_with_spectrum([2.0, 2.0, -1.0, 0.5 + 1j, 0.5 - 1j, 3.0], rng)
        if layout == "fortran":
            given = np.asfortranarray(h)
        else:
            given = np.zeros((12, 12), dtype=complex)[::2, ::2]
            given[...] = h
        assert not given.flags.c_contiguous
        expected = decompose(np.ascontiguousarray(h))
        sys = decompose(given)
        assert np.shares_memory(sys.h, given)
        assert sys.clusters == expected.clusters


class TestCachesAfterReplace:
    def test_psi_cond_is_recomputed(self):
        rng = np.random.default_rng(9)
        values = [1.0, -2.0, 3.0, 0.5]
        sys = decompose(matrix_with_spectrum(values, rng))
        other = decompose(matrix_with_spectrum(values, rng, spread=8.0))
        assert sys.psi_cond == cond(sys.psi)
        swapped = replace(sys, psi=other.psi, phi=other.phi)
        assert swapped.psi_cond == cond(other.psi)
        assert swapped.psi_cond != sys.psi_cond

    def test_eta_norm_is_recomputed(self):
        m = positive_definite(4, np.random.default_rng(10))
        eta = EtaOperator.from_matrix(m)
        assert eta.norm == pytest.approx(np.linalg.norm(m, 2), rel=1e-14)
        scaled = replace(eta, matrix=3.0 * eta.matrix, inverse_form=eta.inverse / 3.0)
        assert scaled.norm == pytest.approx(3.0 * np.linalg.norm(m, 2), rel=1e-14)

    def test_replace_keeps_the_arrays_read_only(self):
        sys = decompose(np.diag([1.0, 2.0]))
        psi = np.eye(2, dtype=complex)
        swapped = replace(sys, psi=psi)
        assert not swapped.psi.flags.writeable and psi.flags.writeable
