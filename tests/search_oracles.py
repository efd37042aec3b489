"""Former exhaustive searches of partfan, kept as oracles for the pruned ones.

``partition.enumerate_admissible`` now searches the E-classes depth-first
and skips every choice that splits a forced pair.  The routines below are
the product filter it replaced and its helper, copied unchanged: it builds
every product of set partitions of the E-classes and keeps the candidates
that ``is_admissible`` accepts.
"""

from partfan.errors import EnumerationLimitExceeded
from partfan.partition import (
    Partition,
    _set_partitions,
    is_admissible,
    potential_identifications,
)


def enumerate_admissible(fan, limit=16):
    """All admissible partitions of a small fan, by exhaustive search.

    Candidates are products of set partitions of each E-class, filtered by
    is_admissible.  Guarded by a cone-count limit because partition counts
    explode.
    """
    if len(fan.cones) > limit:
        raise EnumerationLimitExceeded(
            "fan exceeds the enumeration guard", witness=len(fan.cones))
    ident = potential_identifications(fan)
    per_class = [list(_set_partitions(list(cls))) for cls in ident.classes]
    out = []
    for choice in _product(per_class):
        blocks = [tuple(b) for part in choice for b in part]
        partition = Partition(fan, blocks)
        if is_admissible(fan, partition)[0]:
            out.append(partition)
    return out


def _product(lists):
    if not lists:
        yield []
        return
    for head in lists[0]:
        for rest in _product(lists[1:]):
            yield [head] + rest
