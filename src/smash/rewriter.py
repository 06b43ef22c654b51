"""Rewriting a join tree into a Yannakakis-style sequence of SQL statements.

A plan is a list of statements, each a name and a structural form: a view
per atom, a table per semi-join step and a final SELECT.  For guarded
set-safe aggregate queries only the bottom-up semi-join pass is planned,
with the aggregation on its last step.  For all other queries the top-down
semi-join pass and the bottom-up join pass follow.  The forms are the
plan, and it has two readings.  `interpret_sequence` runs it on the
in-memory engine, and `full_reduce` runs its filters and both semi-join
passes, so the plan is the one implementation of the Yannakakis passes.
`StatementSequence.render` writes it as plain SQL, one statement per form:
views rename every column to its class id, semi-joins keep the left rows
whose shared class columns are IN the right side's, and joins state their
equalities on the class columns they share, so the text computes the
engine's result on a SQL engine such as stdlib sqlite3.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from itertools import takewhile
from operator import itemgetter
from typing import NamedTuple

from .engine import (
    Database,
    OpCounter,
    atom_relation,
    group_aggregate,
    natural_join,
    project,
    semi_join,
)
from .errors import UndefinedIntermediate
from .frontend import NormalizedCQ, _literal_sql

_KINDS = {
    "atom": "CreateView",
    "semijoin": "CreateTable",
    "semijoin_agg": "CreateTable",
    "aggregate": "CreateTable",
    "join_project": "CreateTable",
    "final_all": "FinalSelect",
    "final_project": "FinalSelect",
    "final_agg": "FinalSelect",
    "drop": "Drop",
}


class Statement(NamedTuple):
    name: str | None
    form: tuple  # structural form: the op, then its operands

    @property
    def kind(self):
        """CreateView | CreateTable | FinalSelect | Drop, from the form's op."""
        return _KINDS[self.form[0]]


# Statement((name, form)) without the Python-level constructor, for the
# emitter's many statements
_statement = partial(tuple.__new__, Statement)


@dataclass(slots=True)
class StatementSequence:
    statements: list = field(default_factory=list)
    # node -> artifact holding its fully reduced relation (top-down pass);
    # empty for plans that run only the bottom-up pass
    reduced: dict = field(default_factory=dict)
    # the query and database the plan was made for, which rendering reads
    cq: NormalizedCQ | None = field(default=None, repr=False, compare=False)
    db: Database | None = field(default=None, repr=False, compare=False)

    def created_names(self):
        return [s.name for s in self.statements if s.kind in ("CreateView", "CreateTable")]

    def render(self, with_drops=True, unlogged=True):
        """SQL text of each statement, in order.

        `unlogged` writes the tables as PostgreSQL's CREATE UNLOGGED TABLE,
        the only difference between the dialects rendered.
        """
        texts = _render(self.statements, self.cq, self.db, unlogged)
        return [text for s, text in zip(self.statements, texts)
                if with_drops or s.kind != "Drop"]

    def to_sql(self, with_drops=True, unlogged=True):
        return ";\n".join(self.render(with_drops, unlogged)) + ";"


class _Emitter:
    """Plans the statements of one join tree from the query IR: each
    atom's class set is its bitmask, so projections are mask operations."""

    def __init__(self, tree, cq):
        self.tree = tree
        self.cq = cq
        self.statements = []
        self.art = {}  # node -> its bottom-up pass artifact
        self.finished = []  # nodes in the order that pass finishes them
        self.children_of = tree.children()

    def _add(self, name, *form):
        self.statements.append(_statement((name, form)))
        return name

    def bottom_up_semijoins(self, node, aggregate_at_root=False):
        """A view plus one semi-join table per (node, child); returns the
        node's accumulated artifact name and records it in `art`, and the
        node in `finished`, children before their parents.  Views are
        numbered by the 1-based FROM position of their atom, and higher
        FROM positions are semi-joined in first (E3E2 before E1)."""
        acc = self._add(f"E{node + 1}", "atom", node)
        children = sorted(self.children_of[node], reverse=True)
        at_root = aggregate_at_root and self.tree.parent[node] is None
        if at_root and not children:
            acc = self._add(acc + "A", "aggregate", acc)
        for pos, child in enumerate(children):
            child_art = self.bottom_up_semijoins(child)
            last = pos == len(children) - 1
            op = "semijoin_agg" if at_root and last else "semijoin"
            acc = self._add(acc + child_art, op, acc, child_art)
        self.art[node] = acc
        self.finished.append(node)
        return acc

    def emit(self):
        """The statements and the top-down pass's artifact per node."""
        tree, cq = self.tree, self.cq
        root_art = self.bottom_up_semijoins(tree.root, aggregate_at_root=tree.oma_flag)
        if tree.oma_flag:
            self._add(None, "final_all", root_art)
            self._drops()
            return self.statements, {}

        # top-down semi-joins, parents before their children
        art, parent_of = self.art, tree.parent
        topdown = {tree.root: art[tree.root]}
        for node in reversed(self.finished[:-1]):
            topdown[node] = self._add(
                f"D{node + 1}", "semijoin", art[node], topdown[parent_of[node]],
            )

        # bottom-up joins, each projected on the classes the output or the
        # parent needs, in class-id order
        masks = cq.masks
        output = cq.mask_of(cq.output.needed_classes())
        by_name = None  # (class id, bit) in class-id order, once a join needs it
        joined = {}
        sub_mask = {}
        for node in self.finished:
            children = self.children_of[node]
            attrs = masks[node]
            for c in children:
                attrs |= sub_mask[c]
            parent = parent_of[node]
            keep = attrs & (output if parent is None else output | masks[parent])
            sub_mask[node] = keep
            if not children:
                joined[node] = topdown[node]
                continue
            sources = [joined[c] for c in children]
            if by_name is None:
                by_name = sorted([(cid, 1 << i) for cid, i in cq.class_index.items()])
            joined[node] = self._add(
                f"F{node + 1}", "join_project", topdown[node], sources,
                [cid for cid, bit in by_name if keep & bit],
            )

        root_art = joined[tree.root]
        out = cq.output
        if out.kind == "enumeration":
            self._add(None, "final_project", root_art, list(out.columns))
        else:
            self._add(None, "final_agg", root_art)
        self._drops()
        return self.statements, topdown

    def _drops(self):
        """Every view and table, dropped in the reverse order of creation;
        they are the statements with a name so far."""
        created = [s.name for s in self.statements if s.name is not None]
        self.statements += [_statement((name, ("drop", name))) for name in reversed(created)]


def rewrite(tree, cq, db: Database | None = None) -> StatementSequence:
    """Plan the statement sequence that forces semi-join style evaluation.

    Planning reads no table row and writes no SQL text.  The sequence keeps
    `cq` and `db` for rendering, where the database decides the CAST of a
    numeric comparison on a string-typed column; without it no casts are
    rendered.
    """
    statements, reduced = _Emitter(tree, cq).emit()
    return StatementSequence(statements, reduced, cq, db)


def interpret_sequence(seq: StatementSequence, cq, db: Database,
                       counter: OpCounter | None = None):
    """Execute the structural forms against the in-memory engine."""
    _, result = _run(seq.statements, cq, db, counter)
    if result is None:
        raise UndefinedIntermediate("sequence has no final SELECT")
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


def _run(statements, cq, db, counter):
    """Execute statements in order; returns the intermediates still bound
    and the relation of the last final SELECT (None if there is none)."""
    namespace = {}

    def resolve(name):
        if name not in namespace:
            raise UndefinedIntermediate(f"undefined intermediate {name!r}")
        return namespace[name]

    result = None
    for stmt in statements:
        form = stmt.form
        op = form[0]
        if op == "atom":
            rel = atom_relation(cq, cq.atoms[form[1]], db, counter)
        elif op == "semijoin":
            rel = semi_join(resolve(form[1]), resolve(form[2]), counter)
        elif op == "semijoin_agg":
            reduced = semi_join(resolve(form[1]), resolve(form[2]), counter)
            rel = group_aggregate(
                reduced, cq.output.group_by, cq.output.aggregates, counter
            )
        elif op == "aggregate":
            rel = group_aggregate(
                resolve(form[1]), cq.output.group_by, cq.output.aggregates, counter
            )
        elif op == "join_project":
            rel = resolve(form[1])
            for child in form[2]:
                rel = natural_join(rel, resolve(child), counter)
            if form[3]:
                rel = project(rel, form[3])
        elif op == "final_all":
            result = resolve(form[1])
            continue
        elif op == "final_project":
            result = project(resolve(form[1]), form[2])
            continue
        elif op == "final_agg":
            result = group_aggregate(
                resolve(form[1]), cq.output.group_by, cq.output.aggregates, counter
            )
            continue
        elif op == "drop":
            if form[1] not in namespace:
                raise UndefinedIntermediate(f"cannot drop unknown {form[1]!r}")
            del namespace[form[1]]
            continue
        else:
            raise ValueError(f"unknown structural form {op!r}")
        if stmt.name in namespace:
            raise ValueError(f"duplicate intermediate name {stmt.name!r}")
        namespace[stmt.name] = rel
    return namespace, result


# ---------------------------------------------------------------------------
# rendering: SQL text from the structural forms
# ---------------------------------------------------------------------------

def _render(statements, cq, db, unlogged):
    """SQL text of each statement, walking the forms in order as `_run`
    does and tracking each artifact's class-id columns where `_run` tracks
    its relation."""
    create = "CREATE UNLOGGED TABLE" if unlogged else "CREATE TABLE"
    columns = {}  # artifact -> its class-id columns
    views = set()
    texts = []
    for stmt in statements:
        form = stmt.form
        op = form[0]
        if op == "atom":
            columns[stmt.name], select = _view(cq, cq.atoms[form[1]], db)
            views.add(stmt.name)
            texts.append(f"CREATE VIEW {stmt.name} AS {select}")
            continue
        if op == "semijoin":
            cols = columns[form[1]]
            select = "SELECT * FROM " + _semi_joined(form[1], form[2], columns)
        elif op == "semijoin_agg":
            cols, select = _aggregate(
                cq.output, _semi_joined(form[1], form[2], columns)
            )
        elif op == "aggregate":
            cols, select = _aggregate(cq.output, form[1])
        elif op == "join_project":
            cols, select = _join(form[1], form[2], form[3], columns)
        elif op == "final_all":
            texts.append(f"SELECT * FROM {form[1]}")
            continue
        elif op == "final_project":
            texts.append(f"SELECT {', '.join(map(_quote, form[2]))} FROM {form[1]}")
            continue
        elif op == "final_agg":
            texts.append(_aggregate(cq.output, form[1])[1])
            continue
        elif op == "drop":
            texts.append(f"DROP {'VIEW' if form[1] in views else 'TABLE'} {form[1]}")
            continue
        else:
            raise ValueError(f"unknown structural form {op!r}")
        columns[stmt.name] = cols
        texts.append(f"{create} {stmt.name} AS {select}")
    return texts


def _quote(cid):
    return '"' + cid + '"'


def _where(conditions):
    return " WHERE " + " AND ".join(conditions) if conditions else ""


def _view(cq, atom, db):
    """Class-id columns and SELECT of an atom's relation, as
    `engine.atom_relation` builds it: every column renamed to its class id,
    one column per class under the intra-atom equalities, then the filters.
    """
    first = {}  # class id -> its first attribute in the atom
    conditions = []
    for attr, cid in atom.renaming.items():
        if cid in first:
            conditions.append(f"{first[cid]} = {attr}")
        else:
            first[cid] = attr
    for pred in cq.filters.get(atom.alias, []):
        lhs = first[pred.attribute]
        if _needs_cast(db, atom.table, lhs, pred.literal):
            lhs = f"CAST({lhs} AS REAL)"
        conditions.append(f"{lhs} {pred.op} {_literal_sql(pred.literal)}")
    # without a database, an atom whose columns the query never names has
    # no class column to select
    select = ", ".join(f"{attr} AS {_quote(cid)}" for cid, attr in first.items())
    return list(first), f"SELECT {select or '*'} FROM {atom.table}{_where(conditions)}"


def _needs_cast(db, table, column, literal):
    """Whether a numeric literal meets a column holding strings, which a SQL
    engine compares as numbers only through a CAST (REAL keeps fractions)."""
    if db is None or isinstance(literal, str):
        return False
    rel = db.table(table)
    return any(isinstance(v, str) for v in map(itemgetter(rel._index(column)), rel.rows))


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
