# repro-analyze: skip-file
"""Golden bad program: head-to-head blocking exchange.

Every rank blocking-sends to its ring neighbour before posting the
matching receive.  Under rendezvous semantics (what MPI guarantees you
— eager buffering is an implementation courtesy) no send can complete,
so every p >= 2 deadlocks in a wait-for cycle.  The static verifier
must prove this without running anything (rule REP401).
"""


def rank_program(ep, mw):
    peer = (ep.rank + 1) % ep.size
    if ep.size > 1:
        yield from ep.send(peer, b"ping", tag=7)
        yield from ep.recv((ep.rank - 1) % ep.size, tag=7)


def zero_byte_rank_program(ep, mw):
    """The same exchange of empty messages.  Buffering one costs nothing,
    but MPI still does not promise it, so this deadlocks all the same."""
    peer = (ep.rank + 1) % ep.size
    if ep.size > 1:
        yield from ep.send(peer, b"", tag=7)
        yield from ep.recv((ep.rank - 1) % ep.size, tag=7)
