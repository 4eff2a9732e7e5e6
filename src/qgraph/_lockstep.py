"""The lockstep driver of the eigenvalue count's searches (`spectral`).

A search is a generator that yields requests and returns its result.  It
is sent the count's spectrum at k for a request (count, k), one row per
k for a batch (count, 1-D array of k), and the dict of replies for a
dict of requests, which `yield from _together(...)` yields for
sub-searches; None is no request, and the driver raises on it.  `_drive`
groups each step's requests, those of every dict included, by count
class and matrix shape (V', E), and takes a group in one stacked build
and eigvalsh (`spectra`), a lone single request in `spectrum`, which
builds a trig count's one matrix in 2-D, with no stack.  Each step
stacks its groups' arrays afresh: keeping them for a later step of the
same counts saved under 1% of an optimizer run (CHANGES.md).  A class
builds each row of a stack as it builds that count alone, so a search is
sent the same values alone or in company.
"""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

_Search = Generator[tuple["_Count", float | np.ndarray] | dict, np.ndarray | dict | None, object]


def _together(searches: list[_Search]) -> _Search:
    """Searches advanced in lockstep, as one search that returns their
    results in order.  Each step it yields its own dict of their requests
    by index and sends each its reply."""
    results: list = [None] * len(searches)
    pending: dict[int, object] = {}

    def send(j: int, value) -> None:
        try:
            pending[j] = searches[j].send(value)
        except StopIteration as stop:
            results[j] = stop.value
            pending.pop(j, None)

    for j in range(len(searches)):
        send(j, None)
    while pending:
        for j, reply in (yield pending).items():
            send(j, reply)
    return results


def _leaves(requests: dict, path: tuple = ()) -> dict:
    """The single and batch requests of a dict of them, keyed by their path through sub-searches' dicts."""
    out = {}
    for j, r in requests.items():
        out.update(_leaves(r, path + (j,)) if type(r) is dict else {path + (j,): r})
    return out


def _nested(requests: dict, replies: dict, path: tuple = ()) -> dict:
    """replies, keyed as `_leaves(requests)` keys them, nested as requests are."""
    return {j: _nested(r, replies, path + (j,)) if type(r) is dict else replies[path + (j,)]
            for j, r in requests.items()}


def _drive(searches: list[_Search]) -> list:
    """The results of searches advanced together (`_together`), in order."""
    top = _together(searches)
    try:
        requests = top.send(None)
        while True:
            flat = _leaves(requests) if dict in map(type, requests.values()) else requests
            replies, groups = {}, {}
            for j, (count, _k) in flat.items():
                groups.setdefault((type(count), count.alpha.size, count.lengths.size), []).append(j)
            for key, js in groups.items():
                if len(js) == 1 and not isinstance(flat[js[0]][1], np.ndarray):
                    replies[js[0]] = flat[js[0]][0].spectrum(flat[js[0]][1])
                    continue
                counts = [flat[j][0] for j in js]
                arrays = (np.array([c.coupling for c in counts]), np.array([c.alpha for c in counts]),
                          np.array([c.lengths for c in counts]))
                ks = [flat[j][1] for j in js]
                if np.ndarray in map(type, ks):
                    # a batch takes one row per k, and is sent its rows
                    rows = [np.size(k) for k in ks]
                    values = key[0].spectra(*(np.repeat(a, rows, axis=0) for a in arrays), np.hstack(ks))
                    parts = np.split(values, np.cumsum(rows)[:-1])
                    values = [part if isinstance(k, np.ndarray) else part[0] for k, part in zip(ks, parts)]
                else:
                    values = key[0].spectra(*arrays, np.array(ks))
                for j, v in zip(js, values):
                    replies[j] = v
            requests = top.send(replies if flat is requests else _nested(requests, replies))
    except StopIteration as stop:
        return stop.value
