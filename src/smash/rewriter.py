"""Rewriting a join tree into a Yannakakis-style sequence of SQL statements.

A plan is a list of statements, each a name and a structural form of one
of four ops: `atom` (a view per atom), `semijoin`, `join_project` and
`aggregate`.  The one statement without a name is the last, the result.
For guarded set-safe aggregate queries only the bottom-up semi-join pass is
planned, and the result aggregates its root's artifact.  For all other
queries the top-down semi-join pass and the bottom-up join pass follow.
The forms are the plan, and it has two readings.  The engine's one
statement loop, which also runs Base's plan, executes it:
`interpret_sequence` runs the whole plan, and `full_reduce` its filters
and both semi-join passes, so the plan is the one implementation of the
Yannakakis passes.
`StatementSequence.render` writes it as plain SQL, one statement per form:
views rename every column to its class id, semi-joins keep the left rows
whose shared class columns are IN the right side's, and joins state their
equalities on the class columns they share, so the text computes the
engine's result on a SQL engine such as stdlib sqlite3; the result is a
bare SELECT.  The plan holds no DROP: `render` writes them, one per view
and table, after the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import takewhile

from .engine import Database, OpCounter, Statement, _result, _run
from .errors import SmashError
from .frontend import NormalizedCQ, _literal_sql

# _new(Statement, (name, form)) makes a Statement without the Python-level
# constructor, for the emitter's many statements
_new = tuple.__new__


@dataclass(slots=True)
class StatementSequence:
    statements: list = field(default_factory=list)
    # node -> artifact holding its fully reduced relation (top-down pass);
    # empty for plans that run only the bottom-up pass
    reduced: dict = field(default_factory=dict)
    # the query and database the plan was made for, which rendering reads
    cq: NormalizedCQ | None = field(default=None, repr=False, compare=False)
    db: Database | None = field(default=None, repr=False, compare=False)

    def render(self, with_drops=True):
        """SQL text of each statement, in order, then, `with_drops`, a DROP
        of each view and table in the reverse order of creation."""
        texts = _render(self.statements, self.cq, self.db)
        if with_drops:
            texts += [f"DROP {'VIEW' if s.form[0] == 'atom' else 'TABLE'} {s.name}"
                      for s in reversed(self.statements) if s.name is not None]
        return texts

    def to_sql(self, with_drops=True):
        return ";\n".join(self.render(with_drops)) + ";"


def _emit(tree, cq):
    """The statements of one join tree and the top-down pass's artifact per
    node, planned from the query IR: each atom's class set is its bitmask,
    so projections are mask operations."""
    kids = tree.children
    parent_of = tree.parent
    root = tree.root
    statements = []
    add = statements.append

    # bottom-up semi-joins, depth first from the root: a view per node
    # (numbered by the 1-based FROM position of its atom), then per child,
    # higher FROM positions first (E3E2 before E1), the child's subtree and
    # a table semi-joining the node's accumulated artifact with the child's.
    # `art` ends as each node's artifact and `finished` lists the nodes
    # children first.
    art = {root: f"E{root + 1}"}
    add(_new(Statement, (art[root], ("atom", root))))
    finished = []
    stack = [(root, iter(sorted(kids[root], reverse=True)))]
    while stack:
        node, children = stack[-1]
        child = next(children, None)
        if child is not None:
            name = art[child] = f"E{child + 1}"
            add(_new(Statement, (name, ("atom", child))))
            stack.append((child, iter(sorted(kids[child], reverse=True))))
            continue
        stack.pop()
        finished.append(node)
        if stack:
            above = stack[-1][0]
            acc = art[above]
            name = art[above] = acc + art[node]
            add(_new(Statement, (name, ("semijoin", acc, art[node]))))
    if tree.oma_flag:
        # a 0MA plan ends here: the result aggregates the root's artifact
        add(_result(cq, art[root]))
        return statements, {}

    # top-down semi-joins, parents before their children
    topdown = {root: art[root]}
    for node in reversed(finished[:-1]):
        name = f"D{node + 1}"
        add(_new(Statement, (name, ("semijoin", art[node], topdown[parent_of[node]]))))
        topdown[node] = name

    # bottom-up joins, each projected on the classes the output or the
    # parent needs, in class-id order
    masks = cq.masks
    output = cq.mask_of(cq.output.needed_classes())
    class_ids = None  # by bit, once a join needs them
    joined = {}
    sub_mask = {}
    for node in finished:
        children = kids[node]
        keep = masks[node]
        for c in children:
            keep |= sub_mask[c]
        parent = parent_of[node]
        keep &= output if parent is None else output | masks[parent]
        sub_mask[node] = keep
        if not children:
            joined[node] = topdown[node]
            continue
        if class_ids is None:
            class_ids = list(cq.class_index)
        kept = []
        while keep:
            bit = keep & -keep
            kept.append(class_ids[bit.bit_length() - 1])
            keep ^= bit
        kept.sort()
        name = f"F{node + 1}"
        sources = []
        for c in children:
            sources.append(joined[c])
        add(_new(Statement, (name, ("join_project", topdown[node], sources, kept))))
        joined[node] = name
    add(_result(cq, joined[root]))
    return statements, topdown


def rewrite(tree, cq, db: Database | None = None) -> StatementSequence:
    """Plan the statement sequence that forces semi-join style evaluation.

    Planning reads no table row and writes no SQL text.  The sequence keeps
    `cq` and `db` for rendering, where the database decides the CAST of a
    numeric comparison on a string-typed column; without it no casts are
    rendered.
    """
    statements, reduced = _emit(tree, cq)
    return StatementSequence(statements, reduced, cq, db)


def interpret_sequence(seq: StatementSequence, cq, db: Database,
                       counter: OpCounter | None = None):
    """Run the plan in the engine's statement loop, `engine._run`, and
    return its result, the relation of its unnamed statement."""
    _, result = _run(seq.statements, cq, db, counter)
    if result is None:
        raise SmashError("sequence has no result: no unnamed statement")
    return result


def full_reduce(tree, cq, db: Database, counter: OpCounter | None = None):
    """Per-node relations after the preparatory filters and both semi-join
    passes of the plan for `tree`.

    Every surviving tuple extends to at least one answer of the join query.
    The plan is emitted without the zero-materialization shortcut, so the
    top-down pass exists for every tree, and runs up to its first statement
    that is neither a view nor a semi-join.
    """
    seq = rewrite(replace(tree, oma_flag=False), cq)
    passes = takewhile(lambda s: s.form[0] in ("atom", "semijoin"), seq.statements)
    namespace, _ = _run(passes, cq, db, counter)
    return {node: namespace[name] for node, name in seq.reduced.items()}


# ---------------------------------------------------------------------------
# rendering: SQL text from the structural forms
# ---------------------------------------------------------------------------

def _render(statements, cq, db):
    """SQL text of each statement, walking the forms in order as
    `engine._run` does and tracking each artifact's class-id columns where
    `engine._run` tracks its relation."""
    columns = {}  # artifact -> its class-id columns
    texts = []
    for stmt in statements:
        form = stmt.form
        op = form[0]
        if op == "atom":
            cols, select = _view(cq, cq.atoms[form[1]], db)
        elif op == "semijoin":
            cols = columns[form[1]]
            select = "SELECT * FROM " + _semi_joined(form[1], form[2], columns)
        elif op == "aggregate":
            cols, select = _aggregate(cq.output, form[1])
        elif op == "join_project":
            cols, select = _join(form[1], form[2], form[3], columns)
        else:
            raise ValueError(f"unknown structural form {op!r}")
        columns[stmt.name] = cols
        if stmt.name is not None:
            select = f"CREATE {'VIEW' if op == 'atom' else 'TABLE'} {stmt.name} AS {select}"
        texts.append(select)
    return texts


def _quote(cid):
    return '"' + cid + '"'


def _where(conditions):
    return " WHERE " + " AND ".join(conditions) if conditions else ""


def _view(cq, atom, db):
    """Class-id columns and SELECT of an atom's relation, as
    `engine.atom_relation` builds it: every column renamed to its class id,
    one column per class under the intra-atom equalities, then the filters.
    A numeric literal meets a str column, by the type `Database.add`
    recorded, through a CAST (REAL keeps fractions), so a SQL engine
    compares numbers; the engine rejects such a filter once a row reaches it.
    """
    first = {}  # class id -> its first attribute in the atom
    conditions = []
    for attr, cid in atom.renaming.items():
        if cid in first:
            conditions.append(f"{first[cid]} = {attr}")
        else:
            first[cid] = attr
    types = db.stats[atom.table].types if db is not None else {}
    for pred in cq.filters.get(atom.alias, []):
        lhs = first[pred.attribute]
        if types.get(lhs) is str and not isinstance(pred.literal, str):
            lhs = f"CAST({lhs} AS REAL)"
        conditions.append(f"{lhs} {pred.op} {_literal_sql(pred.literal)}")
    # without a database, an atom whose columns the query never names has
    # no class column to select
    select = ", ".join(f"{attr} AS {_quote(cid)}" for cid, attr in first.items())
    return list(first), f"SELECT {select or '*'} FROM {atom.table}{_where(conditions)}"


def _semi_joined(left, right, columns):
    """FROM operand of `semi_join(left, right)`: the left rows whose class
    columns shared with the right side, as a row value (or a bare column
    for one key), are IN the right side's.  sqlite3 runs the IN subquery
    once into a lookup index, where a correlated EXISTS scans the right
    side once per left row.  Sides that share no column keep EXISTS: the
    left rows survive iff the right side has a row."""
    keys = [_quote(c) for c in columns[left] if c in columns[right]]
    if not keys:
        return f"{left} WHERE EXISTS (SELECT 1 FROM {right})"
    cols = ", ".join(keys)
    row = cols if len(keys) == 1 else f"({cols})"
    return f"{left} WHERE {row} IN (SELECT {cols} FROM {right})"


def _aggregate(output, source):
    """Columns and SELECT of the query's groups and aggregates over `source`."""
    group = [_quote(g) for g in output.group_by]
    names = [f"EXPR${i}" for i in range(len(output.aggregates))]
    items = list(group)
    for agg, name in zip(output.aggregates, names):
        inner = "*" if agg.attribute is None else _quote(agg.attribute)
        if agg.distinct and agg.attribute is not None:
            inner = "DISTINCT " + inner
        items.append(f"{agg.fn}({inner}) AS {name}")
    select = f"SELECT {', '.join(items)} FROM {source}"
    if group:
        select += " GROUP BY " + ", ".join(group)
    return list(output.group_by) + names, select


def _join(first, others, keep, columns):
    """Columns and SELECT of `natural_join` over the sources from left to
    right, projected on `keep` (on every column when it is empty).  A class
    column is read from the first source holding it, and each later source
    holding it is equated with that one."""
    owner = dict.fromkeys(columns[first], first)
    conditions = []
    for source in others:
        for cid in columns[source]:
            if cid in owner:
                conditions.append(f"{owner[cid]}.{_quote(cid)} = {source}.{_quote(cid)}")
            else:
                owner[cid] = source
    cols = list(keep) or list(owner)
    select = ", ".join(f"{owner[c]}.{_quote(c)}" for c in cols) or "*"
    sources = ", ".join([first, *others])
    return cols, f"SELECT {select} FROM {sources}{_where(conditions)}"
