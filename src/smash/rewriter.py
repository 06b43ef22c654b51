"""Rewriting a join tree into an explicit sequence of SQL statements.

Leaf and base relations become filtered views; every semi-join step
materializes an intermediate table via a WHERE EXISTS subquery.  For
guarded set-safe aggregate queries only the bottom-up semi-join pass is
emitted, with the aggregation on the last step.  For all other queries the
top-down semi-join pass and the bottom-up join pass are materialized as
well.  Each statement also carries a structural form that the in-memory
engine can execute directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .engine import (
    Database,
    OpCounter,
    atom_relation,
    group_aggregate,
    natural_join,
    project,
    project_columns,
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
        # views are numbered by 1-based FROM position of the atom
        self.view_name = {i: f"E{i + 1}" for i in range(len(cq.atoms))}

    def _children(self, node):
        # higher FROM positions are semi-joined in first (E3E2 before E1)
        return sorted(self.tree.children_of(node), reverse=True)

    # -- helpers ------------------------------------------------------------

    def table_kw(self):
        return "UNLOGGED TABLE" if self.unlogged else "TABLE"

    def _filter_sql(self, atom):
        parts = []
        for pred in self.cq.filters.get(atom.alias, []):
            original = next(
                a for a, cid in sorted(atom.renaming.items()) if cid == pred.attribute
            )
            lhs = f"{atom.table}.{original}"
            if self._needs_cast(atom, original, pred.literal):
                lhs = f"CAST({lhs} AS INTEGER)"
            parts.append(f"{lhs} {pred.op} {_literal_sql(pred.literal)}")
        return parts

    def _needs_cast(self, atom, original, literal):
        if self.db is None or isinstance(literal, str):
            return False
        table = self.db.table(atom.table)
        col = table.column(original)
        return any(isinstance(v, str) for v in col)

    def _join_condition_sql(self, left_name, left_atom, right_name, right_atom):
        shared = sorted(
            set(left_atom.renaming.values()) & set(right_atom.renaming.values())
        )
        conds = []
        for cid in shared:
            la = next(a for a, c in sorted(left_atom.renaming.items()) if c == cid)
            ra = next(a for a, c in sorted(right_atom.renaming.items()) if c == cid)
            conds.append(f"{left_name}.{la} = {right_name}.{ra}")
        return conds

    # -- statement constructors --------------------------------------------

    def view(self, node):
        atom = self.cq.atoms[node]
        name = self.view_name[node]
        where = self._filter_sql(atom)
        sql = f"CREATE VIEW {name} AS SELECT * FROM {atom.table} AS {atom.table}"
        if where:
            sql += " WHERE " + " AND ".join(where)
        self.statements.append(Statement("CreateView", name, sql, ("atom", node)))
        return name

    def semijoin_table(self, left_name, left_node, right_name, right_node,
                       out_name, select="*", group_by=None):
        conds = self._join_condition_sql(
            left_name, self.cq.atoms[left_node], right_name, self.cq.atoms[right_node]
        )
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
        for atom_idx, cid in enumerate(out.group_by):
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
        node's accumulated artifact name."""
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
                return name
            return acc
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

        # reconstruct per-node phase-1 artifact names (leaf view or last
        # accumulated semi-join table)
        art = {}

        def art_name(node):
            name = self.view_name[node]
            for child in self._children(node):
                name = name + art_name(child)
            return name

        for node in tree.nodes:
            art[node] = art_name(node)

        # top-down semi-joins
        topdown = {tree.root: art[tree.root]}
        order = self._preorder()
        for node in order:
            if node == tree.root:
                continue
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
        for node in reversed(order):
            children = tree.children_of(node)
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
        return StatementSequence(self.statements)

    def _preorder(self):
        order = []
        stack = [self.tree.root]
        while stack:
            u = stack.pop()
            order.append(u)
            for c in reversed(self.tree.children_of(u)):
                stack.append(c)
        return order

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
    namespace = {}

    def resolve(name):
        if name not in namespace:
            raise UndefinedIntermediate(f"undefined intermediate {name!r}")
        return namespace[name]

    result = None
    for stmt in seq.statements:
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
            result = project_columns(resolve(form[1]), form[2])
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
    if result is None:
        raise UndefinedIntermediate("sequence has no final SELECT")
    return result


# ---------------------------------------------------------------------------
# well-formedness check for emitted statement text
# ---------------------------------------------------------------------------

_IDENT = r"[A-Za-z_][A-Za-z_0-9$]*"
_COL = rf'(?:"{_IDENT}(?:\.{_IDENT})?(?:#\d+)?"|{_IDENT}(?:\.{_IDENT})?)'
_CAST = rf"CAST\({_IDENT}\.{_IDENT} AS INTEGER\)"
_VALUE = rf"(?:{_CAST}|{_COL}|-?\d+(?:\.\d+)?|'(?:[^']|'')*')"
_COMPARE = rf"{_VALUE} (?:=|!=|<>|<=|>=|<|>) {_VALUE}"
_WHERE = rf"(?:{_COMPARE}|1 = 1)(?: AND (?:{_COMPARE}))*"
_AGG = rf"(?:MIN|MAX|COUNT|SUM|AVG)\((?:DISTINCT )?(?:{_COL}|\*)\)(?: AS EXPR\$\d+)?"
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
