"""Reference implementations that decide a result from its definition.

They are slow and written for clarity; the tests compare the library's
fast paths against them on small seeded spaces.
"""

from fractions import Fraction


def _key(ev):
    return tuple(sorted(ev))


def label_family(space):
    """Forest labelling by fixpoint: level k starts from the maximal
    unlabelled events (at level 0 these are the roots), and every event some
    level-k event gives positive probability joins level k."""
    fam = list(space.conditioning_events)
    labels = {}
    level = 0
    while len(labels) < len(fam):
        unlabelled = [u for u in fam if u not in labels]
        seeds = [u for u in unlabelled if not any(u < v for v in unlabelled)]
        for u in seeds:
            labels[u] = level
        changed = True
        while changed:
            changed = False
            for u in fam:
                if u in labels:
                    continue
                for v in fam:
                    if labels.get(v) == level and space.conditional(u, v) > 0:
                        labels[u] = level
                        changed = True
                        break
        level += 1
    return labels


def treelike_levels(space):
    """Mass rows of the forest construction built from :func:`label_family`:
    level k mixes, with uniform weights, the conditionals given the maximal
    events labelled k, taken in sorted order."""
    labels = label_family(space)
    rows = []
    for k in range(max(labels.values()) + 1):
        at_level = [u for u, lab in labels.items() if lab == k]
        maximal = sorted(
            (u for u in at_level if not any(u < v for v in at_level)), key=_key
        )
        weight = Fraction(1, len(maximal))
        rows.append(tuple(
            sum((space.table[u].mass[a] * weight for u in maximal), Fraction(0))
            for a in range(space.algebra.n_atoms)
        ))
    return tuple(rows)
