"""Shared fixtures."""

import importlib.util
import pathlib

import pytest

from qgraph import optimize, spectral


class Tally:
    """The number of calls counted, `n`; set it to 0 to restart."""

    def __init__(self) -> None:
        self.n = 0


@pytest.fixture
def count_matrices(monkeypatch):
    """Tally every count matrix the solvers request: each row of a
    `spectra` call of `_TrigCount`, `_TrigInertia` or `_HyperbolicCount` is
    one, and so is each lone request's `_TrigCount.spectrum`, which builds
    its one matrix without `spectra`; a lone hyperbolic `spectrum` is the
    stack of one, tallied in `spectra`, so no matrix counts twice.  `calls`
    tallies those calls, one per group of a drive step.  Apart from them,
    `m0.n` tallies the matrices M0
    whose inertia a count takes for its floor, each matrix of a stacked
    `_zero_inertia` call, and `m0.calls` those calls.  It wraps the private
    entry points until the library counts its own requests."""
    tally = Tally()
    tally.calls = 0
    tally.m0 = Tally()
    tally.m0.calls = 0
    for cls in (spectral._TrigCount, spectral._TrigInertia, spectral._HyperbolicCount):
        def counted(coupling, alpha, lengths, ks, spectra=cls.spectra):
            tally.n += len(ks)
            tally.calls += 1
            return spectra(coupling, alpha, lengths, ks)

        monkeypatch.setattr(cls, "spectra", staticmethod(counted))
    spectrum = spectral._TrigCount.spectrum

    def alone(count, k):
        tally.n += 1
        tally.calls += 1
        return spectrum(count, k)

    monkeypatch.setattr(spectral._TrigCount, "spectrum", alone)
    zero_inertia = spectral._zero_inertia

    def solved(q, alpha, lengths):
        tally.m0.n += len(alpha)
        tally.m0.calls += 1
        return zero_inertia(q, alpha, lengths)

    monkeypatch.setattr(spectral, "_zero_inertia", solved)
    return tally


@pytest.fixture
def contractions(monkeypatch):
    """Tally every face the optimizer contracts to: each `graph._contract`
    call through the name `optimize` binds."""
    tally = Tally()
    contract = optimize._contract

    def counted(g, zero):
        tally.n += 1
        return contract(g, zero)

    monkeypatch.setattr(optimize, "_contract", counted)
    return tally


@pytest.fixture
def eigenbases(monkeypatch):
    """Tally every eigenspace the optimizer solves: each level of an
    `_eigenbasis_coeffs` call through the name `optimize` binds is one."""
    tally = Tally()
    solve = optimize._eigenbasis_coeffs

    def counted(m, ks, multiplicities):
        tally.n += len(ks)
        return solve(m, ks, multiplicities)

    monkeypatch.setattr(optimize, "_eigenbasis_coeffs", counted)
    return tally


@pytest.fixture(scope="session")
def independent_checks():
    """perfbench/checks.py: an eigenvalue count that imports nothing from qgraph."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("independent_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
