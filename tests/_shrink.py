"""The greedy delta-debug shrinker every seeded property harness shares.

Ops carry all their randomness, so any subsequence of a failing sequence
replays deterministically; a failure is reduced by dropping one op at a
time (from the tail) for as long as it still reproduces.
"""


def greedy_shrink(ops, still_fails, keep_head=0):
    """Minimal still-failing subsequence of ``ops``.

    ``still_fails(candidate)`` replays a candidate and says whether the
    failure reproduced.  The first ``keep_head`` ops (a geometry header,
    say) are never dropped.
    """
    current = list(ops)
    shrunk = True
    while shrunk and len(current) > keep_head + 1:
        shrunk = False
        for index in range(len(current) - 1, keep_head - 1, -1):
            candidate = current[:index] + current[index + 1:]
            if still_fails(candidate):
                current = candidate
                shrunk = True
                break
    return current
