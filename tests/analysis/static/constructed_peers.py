# repro-analyze: skip-file
"""Golden programs whose peers come from the objects they construct.

Each rank builds a small object from ``ep.rank`` and ``ep.size`` and
exchanges with the peers it holds, as the PME engine's distributed FFT
derives its slab decompositions from the job geometry in
``__post_init__``.  The verifier runs the program, constructors — a
dataclass's field binding and ``__post_init__``, a plain ``__init__`` —
and augmented assignments included, so the three ring programs prove
clean at every p.  ``halves_exchange`` pairs each upper-half rank with
``rank - p//2``: at odd p the top rank's partner sits in the upper half
too, never posts the receive, and the send is left unmatched (REP402).
"""

from dataclasses import dataclass


@dataclass
class Ring:
    """Ring neighbours, derived once the fields are bound."""

    rank: int
    size: int

    def __post_init__(self):
        self.left = (self.rank - 1) % self.size
        self.right = (self.rank + 1) % self.size


class PlainRing:
    """The same neighbours, set by an ``__init__``."""

    def __init__(self, rank, size):
        self.left = (rank - 1) % size
        self.right = (rank + 1) % size


@dataclass
class Halves:
    """The partner across the halves, moved there with ``-=``/``+=``."""

    rank: int
    size: int

    def __post_init__(self):
        half = self.size // 2
        self.upper = self.rank >= half
        self.partner = self.rank
        if self.upper:
            self.partner -= half
        else:
            self.partner += half


def dataclass_ring(ep, mw):
    ring = Ring(ep.rank, ep.size)
    if ep.size > 1:
        yield from ep.sendrecv(ring.right, b"ring", ring.left, tag=11)


def plain_ring(ep, mw):
    ring = PlainRing(ep.rank, size=ep.size)
    if ep.size > 1:
        yield from ep.sendrecv(ring.right, b"ring", ring.left, tag=11)


def accumulated_peer(ep, mw):
    """The right neighbour, accumulated with ``+=`` and ``%=``."""
    right = ep.rank
    right += 1
    right %= ep.size
    left = (ep.rank + ep.size - 1) % ep.size
    if ep.size > 1:
        yield from ep.sendrecv(right, b"ring", left, tag=11)


def halves_exchange(ep, mw):
    pair = Halves(ep.rank, ep.size)
    if ep.size < 2:
        return
    if pair.upper:
        yield from ep.send(pair.partner, b"data", tag=5)
    else:
        yield from ep.recv(pair.partner, tag=5)
