"""Rewriting a join tree into an explicit sequence of SQL statements.

Leaf and base relations become filtered views; every semi-join step
materializes an intermediate table via a WHERE EXISTS subquery.  For
guarded set-safe aggregate queries only the bottom-up semi-join pass is
emitted, with the aggregation on the last step.  For all other queries the
top-down semi-join pass and the bottom-up join pass are materialized as
well.  Each statement also carries a structural form that the in-memory
engine can execute directly: `interpret_sequence` runs a whole plan, and
`full_reduce` runs a plan's filters and both semi-join passes, so the plan
is the one implementation of the Yannakakis passes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from itertools import takewhile
from operator import itemgetter

from .engine import (
    Database,
    OpCounter,
    atom_relation,
    group_aggregate,
    natural_join,
    project,
    semi_join,
)
from .errors import ParseError, UndefinedIntermediate
from .frontend import _literal_sql


@dataclass
class Statement:
    kind: str  # CreateView | CreateTable | FinalSelect | Drop
    name: str | None
    sql: str
    form: tuple  # structural form executed by interpret_sequence


@dataclass
class StatementSequence:
    statements: list = field(default_factory=list)
    # node -> artifact holding its fully reduced relation (top-down pass);
    # empty for plans that run only the bottom-up pass
    reduced: dict = field(default_factory=dict)

    def created_names(self):
        return [s.name for s in self.statements if s.kind in ("CreateView", "CreateTable")]

    def dropped_names(self):
        return [s.name for s in self.statements if s.kind == "Drop"]

    def to_sql(self, with_drops=True):
        stmts = self.statements if with_drops else [
            s for s in self.statements if s.kind != "Drop"
        ]
        return ";\n".join(s.sql for s in stmts) + ";"


def _quote(cid):
    return '"' + cid + '"'


class _Emitter:
    def __init__(self, tree, cq, db=None, unlogged=True):
        self.tree = tree
        self.cq = cq
        self.db = db
        self.unlogged = unlogged
        self.statements = []
        self.art = {}  # node -> its bottom-up pass artifact
        self.finished = []  # nodes in the order that pass finishes them
        # views are numbered by 1-based FROM position of the atom
        self.view_name = {i: f"E{i + 1}" for i in range(len(cq.atoms))}
        self.children_of = tree.children()
        # per atom: class id -> its alphabetically first original attribute
        self.original = []
        for atom in cq.atoms:
            first = {}
            for attr, cid in sorted(atom.renaming.items()):
                first.setdefault(cid, attr)
            self.original.append(first)

    def _children(self, node):
        # higher FROM positions are semi-joined in first (E3E2 before E1)
        return sorted(self.children_of[node], reverse=True)

    # -- helpers ------------------------------------------------------------

    def table_kw(self):
        return "UNLOGGED TABLE" if self.unlogged else "TABLE"

    def _filter_sql(self, node):
        atom = self.cq.atoms[node]
        parts = []
        for pred in self.cq.filters.get(atom.alias, []):
            original = self.original[node][pred.attribute]
            lhs = f"{atom.table}.{original}"
            if self._needs_cast(atom, original, pred.literal):
                lhs = f"CAST({lhs} AS REAL)"
            parts.append(f"{lhs} {pred.op} {_literal_sql(pred.literal)}")
        return parts

    def _needs_cast(self, atom, original, literal):
        if self.db is None or isinstance(literal, str):
            return False
        table = self.db.table(atom.table)
        values = map(itemgetter(table._index(original)), table.rows)
        return any(issubclass(t, str) for t in set(map(type, values)))

    def _join_condition_sql(self, left_name, left_node, right_name, right_node):
        left, right = self.original[left_node], self.original[right_node]
        return [
            f"{left_name}.{left[cid]} = {right_name}.{right[cid]}"
            for cid in sorted(left.keys() & right.keys())
        ]

    # -- statement constructors --------------------------------------------

    def view(self, node):
        atom = self.cq.atoms[node]
        name = self.view_name[node]
        where = self._filter_sql(node)
        sql = f"CREATE VIEW {name} AS SELECT * FROM {atom.table} AS {atom.table}"
        if where:
            sql += " WHERE " + " AND ".join(where)
        self.statements.append(Statement("CreateView", name, sql, ("atom", node)))
        return name

    def semijoin_table(self, left_name, left_node, right_name, right_node,
                       out_name, select="*", group_by=None):
        conds = self._join_condition_sql(left_name, left_node, right_name, right_node)
        cond_sql = " AND ".join(conds) if conds else "1 = 1"
        sql = (
            f"CREATE {self.table_kw()} {out_name} AS SELECT {select} "
            f"FROM {left_name} WHERE EXISTS (SELECT 1 FROM {right_name} "
            f"WHERE {cond_sql})"
        )
        if group_by:
            sql += " GROUP BY " + ", ".join(group_by)
        return sql

    def _aggregate_select(self):
        out = self.cq.output
        parts = []
        for cid in out.group_by:
            parts.append(_quote(cid))
        for i, agg in enumerate(out.aggregates):
            inner = _quote(agg.attribute) if agg.attribute is not None else "*"
            if agg.distinct:
                inner = "DISTINCT " + inner
            parts.append(f"{agg.fn}({inner}) AS EXPR${i}")
        return ", ".join(parts)

    # -- traversals ---------------------------------------------------------

    def bottom_up_semijoins(self, node, aggregate_at_root=False):
        """Views plus one semi-join table per (node, child); returns the
        node's accumulated artifact name and records it in `art`, and the
        node in `finished`, children before their parents."""
        acc = self.view(node)
        children = self._children(node)
        is_root = self.tree.parent[node] is None
        if not children:
            if aggregate_at_root and is_root:
                name = acc + "A"
                sql = (
                    f"CREATE {self.table_kw()} {name} AS "
                    f"SELECT {self._aggregate_select()} FROM {acc}"
                )
                if self.cq.output.group_by:
                    sql += " GROUP BY " + ", ".join(
                        _quote(g) for g in self.cq.output.group_by
                    )
                self.statements.append(
                    Statement("CreateTable", name, sql, ("aggregate", acc))
                )
                acc = name
        acc_node = node
        for pos, child in enumerate(children):
            child_art = self.bottom_up_semijoins(child, aggregate_at_root=False)
            out_name = acc + child_art
            last = pos == len(children) - 1
            if aggregate_at_root and is_root and last:
                select = self._aggregate_select()
                group = [_quote(g) for g in self.cq.output.group_by] or None
                sql = self.semijoin_table(
                    acc, acc_node, child_art, child, out_name, select, group
                )
                form = ("semijoin_agg", acc, child_art)
            else:
                sql = self.semijoin_table(acc, acc_node, child_art, child, out_name)
                form = ("semijoin", acc, child_art)
            self.statements.append(Statement("CreateTable", out_name, sql, form))
            acc = out_name
        self.art[node] = acc
        self.finished.append(node)
        return acc

    def emit(self):
        tree, cq = self.tree, self.cq
        root_art = self.bottom_up_semijoins(tree.root, aggregate_at_root=tree.oma_flag)
        if tree.oma_flag:
            final_sql = f"SELECT * FROM {root_art}"
            self.statements.append(
                Statement("FinalSelect", None, final_sql, ("final_all", root_art))
            )
            self._drops()
            return StatementSequence(self.statements)

        # top-down semi-joins, parents before their children
        art = self.art
        topdown = {tree.root: art[tree.root]}
        for node in reversed(self.finished[:-1]):
            parent = tree.parent[node]
            out_name = f"D{self.view_name[node][1:]}"
            sql = self.semijoin_table(
                art[node], node, topdown[parent], parent, out_name
            )
            self.statements.append(
                Statement("CreateTable", out_name, sql,
                          ("semijoin", art[node], topdown[parent]))
            )
            topdown[node] = out_name

        # bottom-up joins with projection
        output_attrs = set(cq.output.needed_classes())
        joined = {}
        schema = {
            n: set(cq.atoms[n].renaming.values()) for n in tree.nodes
        }
        sub_schema = {}
        for node in self.finished:
            children = self.children_of[node]
            attrs = set(schema[node])
            for c in children:
                attrs |= sub_schema[c]
            parent = tree.parent[node]
            if parent is None:
                keep = sorted(a for a in attrs if a in output_attrs)
            else:
                keep = sorted(
                    a for a in attrs if a in output_attrs or a in schema[parent]
                )
            sub_schema[node] = set(keep)
            if not children:
                joined[node] = (topdown[node], None)
                continue
            out_name = f"F{self.view_name[node][1:]}"
            sources = [topdown[node]] + [
                joined[c][0] if joined[c][1] is None else joined[c][1]
                for c in children
            ]
            select = ", ".join(_quote(a) for a in keep) or "*"
            sql = (
                f"CREATE {self.table_kw()} {out_name} AS SELECT {select} "
                f"FROM " + ", ".join(sources)
            )
            form = ("join_project", sources[0], sources[1:], keep)
            self.statements.append(Statement("CreateTable", out_name, sql, form))
            joined[node] = (out_name, out_name)

        root_art = joined[tree.root][0]
        out = cq.output
        if out.kind == "enumeration":
            select = ", ".join(_quote(c) for c in out.columns)
            sql = f"SELECT {select} FROM {root_art}"
            form = ("final_project", root_art, list(out.columns))
        else:
            sql = f"SELECT {self._aggregate_select()} FROM {root_art}"
            if out.group_by:
                sql += " GROUP BY " + ", ".join(_quote(g) for g in out.group_by)
            form = ("final_agg", root_art)
        self.statements.append(Statement("FinalSelect", None, sql, form))
        self._drops()
        return StatementSequence(self.statements, topdown)

    def _drops(self):
        for s in reversed([x for x in self.statements if x.kind in ("CreateView", "CreateTable")]):
            obj = "VIEW" if s.kind == "CreateView" else "TABLE"
            self.statements.append(
                Statement("Drop", s.name, f"DROP {obj} {s.name}", ("drop", s.name))
            )


def rewrite(tree, cq, db: Database | None = None, unlogged=True) -> StatementSequence:
    """Emit the statement sequence that forces semi-join style evaluation.

    The optional database enables CAST wrapping for numeric comparisons on
    string-typed columns; without it no casts are emitted.
    """
    return _Emitter(tree, cq, db=db, unlogged=unlogged).emit()


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
# well-formedness check for emitted statement text
# ---------------------------------------------------------------------------

_IDENT = r"[A-Za-z_][A-Za-z_0-9$]*"
_COL = rf'(?:"{_IDENT}(?:\.{_IDENT})?(?:#[0-9]+)?"|{_IDENT}(?:\.{_IDENT})?)'
_CAST = rf"CAST\({_IDENT}\.{_IDENT} AS REAL\)"
_VALUE = rf"(?:{_CAST}|{_COL}|-?[0-9]+(?:\.[0-9]+)?|'(?:[^']|'')*')"
_COMPARE = rf"{_VALUE} (?:=|!=|<>|<=|>=|<|>) {_VALUE}"
_WHERE = rf"(?:{_COMPARE}|1 = 1)(?: AND (?:{_COMPARE}))*"
_AGG = rf"(?:MIN|MAX|COUNT|SUM|AVG)\((?:DISTINCT )?(?:{_COL}|\*)\)(?: AS EXPR\$[0-9]+)?"
_SELECT_ITEM = rf"(?:\*|{_AGG}|{_COL})"
_SELECT_LIST = rf"{_SELECT_ITEM}(?:, {_SELECT_ITEM})*"
_EXISTS = rf"EXISTS \(SELECT 1 FROM {_IDENT} WHERE {_WHERE}\)"
_SELECT = (
    rf"SELECT {_SELECT_LIST} FROM {_IDENT}(?: AS {_IDENT})?(?:, {_IDENT})*"
    rf"(?: WHERE (?:{_EXISTS}|{_WHERE}))?(?: GROUP BY {_COL}(?:, {_COL})*)?"
)

_STATEMENT_RES = [
    re.compile(rf"CREATE VIEW {_IDENT} AS {_SELECT}$"),
    re.compile(rf"CREATE (?:UNLOGGED )?TABLE {_IDENT} AS {_SELECT}$"),
    re.compile(rf"{_SELECT}$"),
    re.compile(rf"DROP (?:VIEW|TABLE) {_IDENT}$"),
]


def parse_statement(sql: str):
    """Validate a statement against the extended (CREATE/EXISTS) grammar."""
    text = sql.strip().rstrip(";")
    for pattern in _STATEMENT_RES:
        if pattern.match(text):
            return True
    raise ParseError(f"statement does not match the extended grammar: {sql!r}")
