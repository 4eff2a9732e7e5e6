"""Shared fixtures."""

import pytest

from qgraph import optimize, spectral


class Tally:
    """The number of calls counted, `n`; set it to 0 to restart."""

    def __init__(self) -> None:
        self.n = 0


@pytest.fixture
def count_matrices(monkeypatch):
    """Tally every count matrix the solvers request: each row of a stacked
    `_TrigCount.spectra` call and each `_Count.spectrum` call is one.  A
    single reduced count goes through `spectra` as a stack of one, so no
    matrix is tallied twice.  It wraps the two private entry points until
    the library counts its own requests."""
    tally = Tally()
    spectra, spectrum = spectral._TrigCount.spectra, spectral._Count.spectrum

    def counted_spectra(coupling, alpha, lengths, ks):
        tally.n += len(ks)
        return spectra(coupling, alpha, lengths, ks)

    def counted_spectrum(self, k):
        tally.n += 1
        return spectrum(self, k)

    monkeypatch.setattr(spectral._TrigCount, "spectra", staticmethod(counted_spectra))
    monkeypatch.setattr(spectral._Count, "spectrum", counted_spectrum)
    return tally


@pytest.fixture
def contractions(monkeypatch):
    """Tally every `contract_with_maps` call the optimizer makes, through
    the name `optimize` binds."""
    tally = Tally()
    contract = optimize.contract_with_maps

    def counted(g, lengths):
        tally.n += 1
        return contract(g, lengths)

    monkeypatch.setattr(optimize, "contract_with_maps", counted)
    return tally


@pytest.fixture
def eigenbases(monkeypatch):
    """Tally every eigenspace the optimizer solves: each `_eigenbasis_coeffs`
    call through the name `optimize` binds is one."""
    tally = Tally()
    solve = optimize._eigenbasis_coeffs

    def counted(m, k, multiplicity):
        tally.n += 1
        return solve(m, k, multiplicity)

    monkeypatch.setattr(optimize, "_eigenbasis_coeffs", counted)
    return tally
