"""Normalization against the one it replaced, on generated queries.

The oracle is `normalize` as it was before it built the query IR in its own
column loops: join-condition columns merged by union-find, and the IR built
afterwards from the atoms, each renaming walked in attribute order.  It is
kept here verbatim, with its query type as `_OracleCQ`.  The generated
queries go beyond the digest corpus, whose join classes all have two
members: conditions that chain, merge two classes or relate two columns of
one atom, columns mentioned in every clause, and tables with unmentioned
columns.  The normalized query (atoms, filters and output, compared by
repr) must be equal; the IR must describe the same classes, with
`class_ids()` in the documented order, although the new IR numbers its
bits in the order normalization makes the classes.
"""

import random
from dataclasses import dataclass, field
from itertools import chain

from smash.engine import Aggregate, Database, Predicate
from smash.frontend import (
    Atom,
    ColumnRef,
    OutputSpec,
    QuerySpec,
    SelectAggregate,
    normalize,
)

from conftest import from_rows

# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _OracleCQ:
    atoms: list
    filters: dict
    output: OutputSpec
    atom_classes: list = field(init=False, repr=False, compare=False)
    class_index: dict = field(init=False, repr=False, compare=False)
    masks: list = field(init=False, repr=False, compare=False)
    occurrences: dict = field(init=False, repr=False, compare=False)
    shared: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {}
        occ = {}
        atom_classes = []
        masks = []
        for atom in self.atoms:
            renaming = atom.renaming
            mask = 0
            for attr in sorted(renaming):
                cid = renaming[attr]
                i = index.get(cid)
                if i is None:  # a class first seen here
                    i = index[cid] = len(index)
                    occ[cid] = 1
                    mask |= 1 << i
                elif not mask >> i & 1:  # not yet counted for this atom
                    occ[cid] += 1
                    mask |= 1 << i
            masks.append(mask)
            classes = tuple(renaming.values())
            if mask.bit_count() != len(classes):  # an intra-atom equality
                classes = tuple(dict.fromkeys(classes))
            atom_classes.append(classes)
        self.atom_classes = atom_classes
        self.class_index = index
        self.masks = masks
        self.occurrences = occ
        self.shared = frozenset([cid for cid, n in occ.items() if n > 1])



def oracle_normalize(spec, db=None):
    """Merge equi-join columns into shared attribute classes.

    Class ids are the representative "alias.attr" with the lowest FROM
    position (ties broken by attribute name).  When a database is supplied,
    every table column participates (unmentioned ones as singletons);
    otherwise only columns referenced by the query.  The returned query
    carries the query IR (see `NormalizedCQ`), built here once.
    """
    # union-find over the join-condition columns, (alias, attr) tuples; a
    # ColumnRef is one, so spec columns and plain tuples for table columns
    # find the same entries.  Insertion order is first-mention order.
    parent = {}

    def find(col):
        root = parent[col]
        if root == col:
            return col
        while parent[root] != root:
            root = parent[root]
        while parent[col] != root:
            parent[col], col = root, parent[col]
        return root

    # a column whose parent is a root needs no `find`
    for l, r in spec.join_conds:
        root_l = parent.setdefault(l, l)
        if parent[root_l] != root_l:
            root_l = find(l)
        root_r = parent.setdefault(r, r)
        if parent[root_r] != root_r:
            root_r = find(r)
        if root_l != root_r:
            parent[root_r] = root_l
    # renamings list each atom's attributes in class order, then first
    # mention.  Every join-condition column is mentioned before any other,
    # so the join classes come first, in the order of their first members;
    # then each other column is a class alone, in first-mention order.
    members = {}
    for col, root in parent.items():
        if parent[root] != root:
            root = find(col)
        members.setdefault(root, []).append(col)
    alias_pos = {}
    renamings = {}
    for pos, (_, alias) in enumerate(spec.tables):
        alias_pos[alias] = pos
        renamings[alias] = {}
    for group in members.values():
        alias, attr = group[0]
        if len(group) > 1:  # the member first in FROM order, then by name
            best = alias_pos[alias]
            for a, t in group:
                pos = alias_pos[a]
                if pos < best or (pos == best and t < attr):
                    alias, attr, best = a, t, pos
        cid = f"{alias}.{attr}"
        for alias, attr in group:
            renamings[alias][attr] = cid
    for alias, attr in chain(
            spec.select_columns,
            [a.column for a in spec.select_aggregates if a.column is not None],
            spec.group_by,
            [col for col, _, _ in spec.filters]):
        renaming = renamings[alias]
        if attr not in renaming:
            renaming[attr] = f"{alias}.{attr}"
    atoms = []
    for name, alias in spec.tables:
        renaming = renamings[alias]
        if db is not None:
            for attr in db.table(name).schema:
                if attr not in renaming:
                    renaming[attr] = f"{alias}.{attr}"
        atoms.append(Atom(alias, name, renaming))  # the current Atom type

    filters = {}
    for (alias, attr), op, literal in spec.filters:
        filters.setdefault(alias, []).append(
            Predicate(renamings[alias][attr], op, literal)
        )

    if spec.is_aggregate:
        source_aliases = []
        for ref in spec.group_by + [
            a.column for a in spec.select_aggregates if a.column is not None
        ]:
            if ref.alias not in source_aliases:
                source_aliases.append(ref.alias)
        output = OutputSpec(
            kind="aggregate",
            aggregates=[
                Aggregate(
                    a.fn,
                    None if a.column is None else renamings[a.column[0]][a.column[1]],
                    a.distinct,
                )
                for a in spec.select_aggregates
            ],
            group_by=[renamings[alias][attr] for alias, attr in spec.group_by],
            source_aliases=source_aliases,
        )
    else:
        output = OutputSpec(
            kind="enumeration",
            columns=[renamings[alias][attr] for alias, attr in spec.select_columns],
            source_aliases=list(dict.fromkeys([c[0] for c in spec.select_columns])),
        )
    return _OracleCQ(atoms=atoms, filters=filters, output=output)



# ---------------------------------------------------------------------------
# generated queries
# ---------------------------------------------------------------------------

_ATTRS = ["a", "b", "c", "d"]


def _spec(rng):
    """A query over 1-5 aliases of tables t0..t2, with random conditions,
    mentions and filters, and the database of those tables."""
    n = rng.randint(1, 5)
    tables = [(f"t{rng.randrange(3)}", f"x{i}") for i in range(n)]

    def col():
        return ColumnRef(f"x{rng.randrange(n)}", rng.choice(_ATTRS))

    joins = []
    for _ in range(rng.randint(0, 7)):
        left, right = col(), col()
        if left != right:
            joins.append((left, right))
    spec = QuerySpec(tables=tables, join_conds=joins,
                     filters=[(col(), "<", rng.randint(0, 3)) for _ in range(rng.randint(0, 2))])
    mentioned = [col() for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.5:
        spec.select_columns = mentioned
    else:
        spec.group_by = mentioned[:1]
        spec.select_aggregates = [
            SelectAggregate(rng.choice(["MIN", "COUNT", "SUM"]),
                            None if rng.random() < 0.2 else col(), rng.random() < 0.3)
            for _ in range(rng.randint(1, 2))]
    db = Database()
    for t in range(3):
        db.add(from_rows(f"t{t}", _ATTRS[:rng.randint(2, 4)], []))
    return spec, db


def _classes_by_atom(cq, index):
    bits = {i: cid for cid, i in index.items()}
    return [sorted(bits[i] for i in range(len(bits)) if mask >> i & 1) for mask in cq.masks]


def _agree(spec, db):
    expected = oracle_normalize(spec, db)
    got = normalize(spec, db)
    assert repr((got.atoms, got.filters, got.output)) == \
        repr((expected.atoms, expected.filters, expected.output))
    assert got.class_ids() == list(expected.class_index)
    assert sorted(got.class_index) == sorted(expected.class_index)
    assert list(got.occurrences) == list(got.class_index)  # bit order
    assert got.occurrences == expected.occurrences
    assert got.shared == expected.shared
    assert _classes_by_atom(got, got.class_index) == \
        _classes_by_atom(expected, expected.class_index)
    for atom, mask in zip(got.atoms, got.masks):
        assert mask.bit_count() == len(set(atom.renaming.values()))


def test_generated_queries_normalize_as_the_oracle_does():
    rng = random.Random(5)
    merges = 0
    for _ in range(3000):
        spec, db = _spec(rng)
        _agree(spec, db)
        _agree(spec, None)
        merges += _merges(spec.join_conds)
    assert merges > 100


def _merges(conds):
    """How many conditions relate two columns already in different classes."""
    group_of = {}
    count = 0
    for left, right in conds:
        a, b = group_of.get(left), group_of.get(right)
        if a is not None and b is not None and a is not b:
            count += 1
        merged = (a or set()) | (b or set()) | {left, right}
        for col in merged:
            group_of[col] = merged
    return count
