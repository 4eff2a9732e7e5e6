"""The lockstep driver of the eigenvalue count's searches (`spectral`).

A search is a generator that yields requests and returns its result.  A
request is one count at one point, (count, k), and the search is sent
that count's spectrum at k; a search may also yield a dict of requests,
and is sent the dict of their replies under the same keys.  None is no
request, and the driver raises on it.  `_together` runs searches as one
search whose every step is one flat dict of single requests: search j's
request under key j, each entry of a dict it yielded under (j, key).
`_drive` groups each step's requests by count class and matrix shape
(V', E), and takes a group in one stacked build and eigvalsh (`spectra`),
a lone request in `spectrum`, which builds a trig count's one matrix in
2-D, with no stack.  Each step stacks its groups' arrays afresh: keeping
them for a later step of the same counts saved under 1% of an optimizer
run (CHANGES.md).  A class builds each row of a stack as it builds that
count alone, so a search is sent the same values alone or in company.
"""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

_Search = Generator[tuple["_Count", float] | dict, np.ndarray | dict | None, object]


def _together(searches: list[_Search]) -> _Search:
    """Searches advanced in lockstep, as one search that returns their
    results in order.  Each step it yields one flat dict of their
    requests, keyed as the module docstring says, and sends each search
    its replies."""
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
        asked, flat = dict(pending), {}
        for j, request in asked.items():
            flat.update({(j, i): r for i, r in request.items()} if type(request) is dict else {j: request})
        replies = yield flat
        for j, request in asked.items():
            send(j, {i: replies[j, i] for i in request} if type(request) is dict else replies[j])
    return results


def _drive(searches: list[_Search]) -> list:
    """The results of searches advanced together (`_together`), in order."""
    top = _together(searches)
    try:
        requests = top.send(None)
        while True:
            replies, groups = {}, {}
            for j, (count, _k) in requests.items():
                groups.setdefault((type(count), count.alpha.size, count.lengths.size), []).append(j)
            for key, js in groups.items():
                if len(js) == 1:
                    count, k = requests[js[0]]
                    replies[js[0]] = count.spectrum(k)
                    continue
                counts = [requests[j][0] for j in js]
                replies.update(zip(js, key[0].spectra(
                    np.array([c.coupling for c in counts]), np.array([c.alpha for c in counts]),
                    np.array([c.lengths for c in counts]), np.array([requests[j][1] for j in js]))))
            requests = top.send(replies)
    except StopIteration as stop:
        return stop.value
