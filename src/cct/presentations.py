"""Finitely presented groups: parsing and coset enumeration.

Enumeration is plain HLT over the trivial subgroup: live cosets are
scanned in ascending order, relators in declared order, and a stalled scan
defines a coset at its leftmost missing slot, so the whole run is
deterministic.  A generator with a relator s^2 or s^-2 has one table
column, its own inverse, and the relators are reduced cyclically in those
columns, so s^2 costs no scan.  A relator that is a rotation of itself or
of its inverse is not scanned at a coset where that rotation shows it
already closed at a smaller one, a scan that would change nothing.  Where
the rotation is one letter, as for (s t)^m over involutions or b^n, this
is decided once per coset: its descent mask, the columns that lead from it
back to a smaller coset, picks the relators it must scan.  The table is
kept by columns, one list per column indexed by coset and grown by
doubling, so defining a coset builds no row.  Coincidences are processed
eagerly through a union-find that always keeps the lower-numbered coset
alive.  One pass leaves every row complete and every relator cycle
closed, since a coincidence only identifies cosets (Holt, Eick &
O'Brien, Handbook of Computational Group Theory, §5.1).  One
exact check on the original relators confirms it over every coset at once,
a relator u^m as u's permutation raised to the m-th power; a table that
fails it raises AssertionError, so a returned table has always passed it.
The returned table is standardised (§5.1), so its numbering does not
depend on the order in which cosets were defined.  Running out of cosets
raises BudgetExceeded, which counts every coset ever defined and reports
how many were live, and never misreports a finite result.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import dataclass

from . import config
from .errors import BudgetExceeded, InputTooLarge, ParseError
from .groups import FiniteGroup, _bfs_group, _bfs_order, _compose, _power

__all__ = [
    "Word",
    "Presentation",
    "CosetTable",
    "parse_presentation",
    "todd_coxeter",
    "realize",
]


@dataclass(frozen=True)
class Word:
    """A word in presentation generators: (symbol index, +1 or -1) letters."""

    letters: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.letters)

    def text(self, names: tuple[str, ...]) -> str:
        if not self.letters:
            return "1"
        parts = []
        for sym, run in itertools.groupby(self.letters):
            count = sum(1 for _ in run)
            name = names[sym[0]]
            exp = count * sym[1]
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return " ".join(parts)


def _reduce(letters) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for sym, e in letters:
        if out and out[-1][0] == sym and out[-1][1] == -e:
            out.pop()
        else:
            out.append((sym, e))
    return tuple(out)


def _inverse(letters: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """The letters of the inverse word: reversed, each exponent negated."""
    return tuple((s, -e) for s, e in reversed(letters))


@dataclass(frozen=True)
class Presentation:
    """Generator names plus freely reduced, nonempty relator words."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        for rel in self.relators:
            if not rel.letters:
                raise ValueError("empty relator (drop it before constructing)")
            for sym, e in rel.letters:
                if not 0 <= sym < len(self.generators):
                    raise ValueError(f"relator references unknown symbol {sym}")
                if e not in (1, -1):
                    raise ValueError(f"letter exponent must be +-1, got {e}")

    def text(self) -> str:
        rels = ", ".join(r.text(self.generators) for r in self.relators)
        return f"< {', '.join(self.generators)} | {rels} >"


@dataclass(frozen=True)
class CosetTable:
    """Closed coset table: coset 0 is the subgroup coset, actions transitive."""

    num_cosets: int
    action: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# parsing


# One token per match: a symbol, an integer, an ASCII name, or any other
# non-space character, which is refused.  `\d` is what str.isdecimal
# accepts, the digits int() reads, so '²' is refused; '*' is tolerated as
# an explicit product separator and makes no token, and `finditer` skips
# the whitespace between matches.
_TOKEN = re.compile(r"(?P<SYM>[-<>|,()^=])|\*|(?P<INT>\d+)"
                    r"|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)|(?P<BAD>\S)")


def _tokens(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, position) tokens of `text`, ending in EOF; a
    symbol is its own kind."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, word = m.lastgroup, m.group()
        if kind == "BAD":
            raise _err(text, m.start(), f"unexpected character {word!r}", "a token")
        if kind is not None:  # '*' matches no group
            tokens.append((word if kind == "SYM" else kind, word, m.start()))
    tokens.append(("EOF", "", len(text)))
    return tokens


def _err(text: str, pos: int, message: str, expected: str) -> ParseError:
    line = text.count("\n", 0, pos) + 1
    column = pos - (text.rfind("\n", 0, pos) + 1)
    return ParseError(message, line=line, column=column, expected=expected)


class _PresentationParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokens(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind: str, expected: str):
        tok = self.tokens[self.k]
        if tok[0] != kind:
            raise _err(self.text, tok[2], f"got {tok[1] or 'end of input'!r}", expected)
        self.k += 1
        return tok

    def parse(self) -> Presentation:
        self.limit = self.room = config.PRESENTATION_LETTERS_MAX  # letters left to spell out
        self.take("<", "'<'")
        names = [self.take("NAME", "generator name")[1]]
        while self.peek()[0] == ",":
            self.k += 1
            names.append(self.take("NAME", "generator name")[1])
        if len(set(names)) != len(names):
            tok = self.peek()
            raise _err(self.text, tok[2], "duplicate generator name", "distinct names")
        self.names = {name: i for i, name in enumerate(names)}
        self.take("|", "'|'")
        relators: list[Word] = []
        if self.peek()[0] not in (">",):
            relators.extend(self.relation())
            while self.peek()[0] == ",":
                self.k += 1
                relators.extend(self.relation())
        self.take(">", "'>'")
        tok = self.peek()
        if tok[0] != "EOF":
            raise _err(self.text, tok[2], f"trailing input {tok[1]!r}", "end of input")
        reduced = [Word(w) for w in (_reduce(r) for r in relators) if w]
        return Presentation(tuple(names), tuple(reduced))

    def relation(self) -> list[tuple[tuple[int, int], ...]]:
        # w1 = w2 = ... = wk contributes the relators w_i * w_{i+1}^-1
        sides = []
        while True:
            sides.append(self.word())
            self.room -= len(sides[-1])
            if self.peek()[0] != "=":
                break
            self.k += 1
        if len(sides) == 1:
            return [sides[0]]
        return [left + _inverse(right) for left, right in zip(sides, sides[1:])]

    def word(self) -> tuple[tuple[int, int], ...]:
        letters: list[tuple[int, int]] = []
        letters.extend(self.factor())
        while self.peek()[0] in ("NAME", "(") or (self.peek()[0] == "INT" and self.peek()[1] == "1"):
            letters.extend(self.factor())
            self._spell(len(letters))
        return tuple(letters)

    def factor(self) -> tuple[tuple[int, int], ...]:
        tok = self.peek()
        if tok[0] == "NAME":
            name = tok[1]
            if name in self.names:
                self.k += 1
                return self._exponent(((self.names[name], 1),))
            if all(ch in self.names for ch in name):
                # juxtaposed single-letter generators, e.g. "abab";
                # a trailing exponent binds to the last letter only
                self.k += 1
                head = tuple((self.names[ch], 1) for ch in name[:-1])
                return head + self._exponent(((self.names[name[-1]], 1),))
            raise _err(self.text, tok[2], f"unknown generator {name!r}", "a declared generator")
        if tok[0] == "INT" and tok[1] == "1":
            self.k += 1
            return self._exponent(())
        if tok[0] == "(":
            self.k += 1
            base = self.word()
            self.take(")", "')'")
            return self._exponent(base)
        raise _err(self.text, tok[2], f"got {tok[1] or 'end of input'!r}",
                   "a generator, '1' or '('")

    def _exponent(self, base: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
        if self.peek()[0] != "^":
            return base
        self.k += 1
        sign = 1
        if self.peek()[0] == "-":
            sign = -1
            self.k += 1
        exp_tok = self.take("INT", "an integer exponent")
        exp = sign * int(exp_tok[1])
        if exp < 0:
            base = _inverse(base)
            exp = -exp
        self._spell(len(base) * exp)
        return base * exp

    def _spell(self, n: int):
        """Raise InputTooLarge unless `n` more letters fit in the limit."""
        if n > self.room:
            raise InputTooLarge("presentation letters", self.limit - self.room + n, self.limit)


def parse_presentation(text: str) -> Presentation:
    """Parse `< g1, g2, ... | w1, w2, ... >` into a Presentation.

    Words are products of generators, inverses `g^-1`, powers `g^k` and
    parenthesized subwords with exponents; `w1 = w2 = 1` equation chains
    are accepted and converted to relators.  The words, powers expanded,
    may spell out at most `config.PRESENTATION_LETTERS_MAX` letters in
    all; a power or word past that raises InputTooLarge before it is built.
    """
    return _PresentationParser(text).parse()


# ---------------------------------------------------------------------------
# coset enumeration


_FIRST_ROOM = 64  # the cosets a coset table holds before it first doubles


def todd_coxeter(pres: Presentation, max_cosets: int | None = None) -> CosetTable:
    """Enumerate cosets of the trivial subgroup (HLT, eager coincidences).

    A generator s with a relator s^2 or s^-2 gets one column, its own
    inverse; every other generator gets a column for s and one for s^-1.
    Relators are rewritten in columns and reduced freely and cyclically,
    so s^2 itself vanishes and costs no scan.  A relator that is a rotation
    of itself or of its inverse, such as (s t)^m over involutions or a^n,
    closes at a coset exactly when it closes where a short column path
    from there leads (`_skip_paths`); if that path reaches a smaller coset,
    which was scanned before and stays closed, the scan would change
    nothing and is skipped.  One-letter paths are read once per coset, as
    its descent mask: the columns x whose entry at the coset is defined and
    smaller than it, taken when its turn starts.  A relator whose one-letter
    path columns meet the mask is skipped; the relators left for each mask
    are listed once per call.  Longer paths, as (a, b) for (a b)^7 with b
    of order 3, are walked per relator.  An entry that points down stays
    pointing down through coincidences, so each skip is still a scan that
    would change nothing.  So the cosets defined, their order and the
    budgets are those of scanning every relator.  `max_cosets` bounds the
    cosets ever defined, dead ones included.

    The table is kept by columns: the entry of coset c in column x is
    `cols[x][c]`, and a relator is the tuple of its letters' column lists,
    read forward and inverted.  The columns and the union-find parents grow
    by doubling, so a definition writes two entries and its parent and
    builds no row; a dead coset keeps its entries, which nothing reads
    again.  One HLT pass, closed by one exact check on the original
    presentation (Handbook §5.1): every live coset is complete and every
    relator is the identity on the table.  The returned table is
    standardised: coset 0 first, the others numbered as first reached when
    the numbered cosets are scanned in order over the columns g1, g1^-1,
    g2, ...; so it depends only on the presented group and its generator
    order, not on how the pass ran.  Each of its columns is two
    `_compose`s: the generator's column read at the cosets in the new
    order, then renumbered.  The pass runs in its own call, so its working
    table is freed before the check builds its sets.
    """
    result = _hlt_pass(pres, max_cosets)
    if not _closes(result, pres):
        raise AssertionError("HLT pass left a relator unclosed")
    return result


def _hlt_pass(pres: Presentation, max_cosets: int | None) -> CosetTable:
    """`todd_coxeter`'s pass and standardisation, without the closing check."""
    budget = max_cosets if max_cosets is not None else config.DEFAULT_MAX_COSETS
    if budget < 1:
        raise ValueError("max_cosets must be at least 1")
    k = len(pres.generators)
    involutions = {rel.letters[0][0] for rel in pres.relators
                   if len(rel) == 2 and rel.letters[0] == rel.letters[1]}
    column: dict[tuple[int, int], int] = {}  # letter (symbol, sign) -> column
    inv: list[int] = []  # column -> the column of its inverse
    for s in range(k):
        c = len(inv)
        if s in involutions:
            column[s, 1] = column[s, -1] = c
            inv.append(c)
        else:
            column[s, 1], column[s, -1] = c, c + 1
            inv += [c + 1, c]
    cap = min(budget, _FIRST_ROOM)  # cosets the columns hold before they double
    cols = [[None] * cap for _ in inv]
    pairs = [(col, cols[ix]) for col, ix in zip(cols, inv)]  # (column, inverse column)
    parent = [0] * cap  # union-find, always rooted at the lowest coset; set on definition
    # (columns of its one-letter skip paths as a bitmask, (word, inverse
    # word, longer skip paths) as column lists), in declared order
    relators = []
    one_letter = 0  # the columns of every one-letter path
    for rel in pres.relators:
        word = _cyclically_reduced(_compose(rel.letters, column), inv)
        if word:
            iword = _compose(word, inv)
            bits, longer = 0, []
            for path in _skip_paths(word, iword):
                if len(path) == 1:
                    bits |= 1 << path[0]
                else:
                    longer.append(_compose(path, cols))
            one_letter |= bits
            relators.append((bits, (_compose(word, cols), _compose(iword, cols), longer)))
    descents = [(col, 1 << x) for x, col in enumerate(cols) if one_letter >> x & 1]
    to_scan: dict[int, list] = {}  # descent mask -> the relators it does not skip

    size = 1  # cosets defined, dead ones included
    room = cap  # a definition at size == room grows the columns or exceeds the budget
    alpha = 0
    while alpha < size:
        if parent[alpha] == alpha:
            mask = 0  # the one-letter paths from alpha that reach a smaller coset
            for col, bit in descents:
                c = col[alpha]
                if c is not None and c < alpha:
                    mask |= bit
            todo = to_scan.get(mask)
            if todo is None:
                todo = to_scan[mask] = [scan for skips, scan in relators if not skips & mask]
            for word, iword, paths in todo:
                for path in paths:  # only the paths of two or more letters
                    c = alpha
                    for col in path:
                        c = col[c]
                        if c is None:
                            break
                    else:
                        if c < alpha:  # closed at c, scanned before alpha, so closed here
                            break
                else:  # no path reached a smaller coset: scan, defining as it stalls
                    f, i = alpha, 0
                    b, j = alpha, len(word) - 1
                    while True:
                        while i <= j and (nxt := word[i][f]) is not None:
                            f = nxt
                            i += 1
                        if i > j:
                            if f != b:
                                _coincidence(f, b, parent, pairs)
                            break
                        while j >= i and (nxt := iword[j][b]) is not None:
                            b = nxt
                            j -= 1
                        if j < i:
                            _coincidence(f, b, parent, pairs)
                            break
                        if j == i:
                            word[i][f] = b
                            iword[i][b] = f
                            break
                        if size == room:
                            room = _grow(cols, parent, size, budget)
                        word[i][f] = parent[size] = size
                        iword[i][size] = f
                        size += 1
                    if parent[alpha] != alpha:
                        break
            else:  # alpha survived every relator: fill its row
                for col, icol in pairs:
                    if col[alpha] is None:
                        if size == room:
                            room = _grow(cols, parent, size, budget)
                        col[alpha] = parent[size] = size
                        icol[size] = alpha
                        size += 1
        alpha += 1

    # standardise (Handbook §5.1): the columns are already g1, g1^-1, g2, ...
    order = [0]
    pos = [-1] * size
    pos[0] = 0
    for c in order:  # appends while the loop runs
        for col in cols:
            d = col[c]
            if d is None:
                raise AssertionError("HLT pass left an incomplete coset table")
            if pos[d] < 0:
                pos[d] = len(order)
                order.append(d)
    if len(order) != _live(parent, size):
        raise AssertionError("HLT pass left a live coset unreachable")
    return CosetTable(len(order), tuple(_compose(_compose(order, cols[column[s, 1]]), pos)
                                        for s in range(k)))


def _live(parent: list[int], size: int) -> int:
    """The live cosets among the first `size`: the roots of the union-find."""
    return sum(map(operator.eq, parent, range(size)))


def _grow(cols: list[list], parent: list[int], size: int, budget: int) -> int:
    """Room for the definition of coset `size`, which is the table's room.

    Raises BudgetExceeded if `size` cosets spend the budget; otherwise
    doubles the columns and the parent list in place if they are full.
    Returns the size at which the next definition must ask again.
    """
    if size >= budget:
        raise BudgetExceeded(budget, _live(parent, size))
    if size == len(parent):
        for col in cols:
            col += [None] * size
        parent += [0] * size
    return min(len(parent), budget)


def _coincidence(a: int, b: int, parent: list[int], pairs: list[tuple[list, list]]):
    """Identify cosets a and b and every pair their rows force together.

    The higher root of each pair becomes dead and is queued; its entries
    move to the coset that absorbed it, column by column, and a clash there
    queues a further pair.  The lower-numbered coset always stays alive.
    """
    while parent[a] != a:
        a = parent[a]
    while parent[b] != b:
        b = parent[b]
    if a == b:
        return
    if b < a:
        a, b = b, a
    parent[b] = a
    queue = [b]
    for gamma in queue:  # appends while the loop runs
        for col, icol in pairs:
            delta = col[gamma]
            if delta is None:
                continue
            icol[delta] = None
            mu = gamma
            while parent[mu] != mu:
                mu = parent[mu]
            nu = delta
            while parent[nu] != nu:
                nu = parent[nu]
            if (a := col[mu]) is not None:  # mu and nu clash: identify col[mu] and nu
                b = nu
            elif (a := icol[nu]) is not None:  # or icol[nu] and mu
                b = mu
            else:
                col[mu] = nu
                icol[nu] = mu
                continue
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                if b < a:
                    a, b = b, a
                parent[b] = a
                queue.append(b)


def _cyclically_reduced(word: tuple[int, ...], inv: list[int]) -> tuple[int, ...]:
    """`word` in columns, reduced freely and then cyclically."""
    out: list[int] = []
    for x in word:
        if out and out[-1] == inv[x]:
            out.pop()
        else:
            out.append(x)
    i, j = 0, len(out) - 1
    while i < j and out[i] == inv[out[j]]:
        i += 1
        j -= 1
    return tuple(out[i:j + 1])


def _skip_paths(word: tuple[int, ...], iword: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Column paths from a coset α to cosets where `word` closes iff it closes at α.

    A turn of `word` is a q with 0 < q < len(word) such that word[q:] +
    word[:q] is `word` or its inverse.  For a turn q, `word` closes at α
    exactly when it closes at α·word[:q], and exactly when it closes at the
    coset that word[q:] carries to α.  The paths are word[:q] for the least
    turn and (word[q:])^-1 for the greatest; they can differ in length, as
    for (a^-1 b^-1 a b)^4 with a an involution.  No paths if `word` has no
    turn.  The rotation by q is `word` exactly when the period of `word`
    (the length of its shortest root) divides q, and it is the inverse on
    at most one class of q mod the period, since two such q differ by a
    turn into `word`; so the turns are found without trying every rotation.
    """
    inverse = iword[::-1]
    n = len(word)
    period = len(_root(word)[0])
    first = next((q for q in range(1, period)
                  if word[q] == inverse[0] and word[q:] + word[:q] == inverse), period)
    if first == n:
        return ()
    last = first + (n - 1 - first) // period * period  # the greatest turn
    return word[:first], iword[last:][::-1]


def _closes(ct: CosetTable, pres: Presentation) -> bool:
    """Whether every relator of `pres` acts as the identity on `ct`.

    A relator is u^m for its shortest root u, and it closes exactly when
    u's permutation of the cosets has order dividing m.  So the letters of
    u are composed into that permutation, and it is raised to the m-th
    power by repeated squaring; each step is one `_compose` over the whole
    coset list, about |u| + 2 log2(m) of them per relator instead of |u| m.
    The check stays exact over every coset.  Raises AssertionError if a
    generator action is not a permutation.
    """
    n = ct.num_cosets
    ident, cosets = tuple(range(n)), set(range(n))
    for perm in ct.action:
        if len(perm) != n or set(perm) != cosets:
            raise AssertionError("coset action is not a permutation")
    inverse = {}  # only for generators that some relator inverts
    for s in {s for rel in pres.relators for s, e in rel.letters if e < 0}:
        inv = [0] * ct.num_cosets
        for i, j in enumerate(ct.action[s]):
            inv[j] = i
        inverse[s] = tuple(inv)
    for rel in pres.relators:
        root, m = _root(rel.letters)
        perm = functools.reduce(_compose, [ct.action[s] if e > 0 else inverse[s]
                                           for s, e in root])
        if _power(_compose, perm, m) != ident:
            return False
    return True


def _root(letters: tuple) -> tuple[tuple, int]:
    """(u, m) with `letters` = u^m and u as short as possible."""
    n = len(letters)
    for d in range(1, n + 1):
        if n % d == 0 and letters[:d] * (n // d) == letters:
            return letters[:d], n // d


def realize(pres: Presentation, max_cosets: int | None = None) -> FiniteGroup:
    """Realize a finite presented group via its regular action on cosets.

    `max_cosets` is `todd_coxeter`'s budget, which counts every coset
    defined.  The coset table of the trivial subgroup is the regular
    action, so each element is its coset, the image of coset 0 (Handbook
    §5.1).  A BFS over the table's columns reaches the cosets in the order
    `_bfs_group` gives the elements and records each coset's generator
    path; the coset of x y is y's path followed from x's coset.  Each
    element is labelled by its path, the generator names joined by "" when
    all are one letter and by "*" otherwise, "1" for the identity.  The
    stored generators correspond to the presentation's symbols in order.
    """
    ct = todd_coxeter(pres, max_cosets)
    action = ct.action
    order, _, parent, edge = _bfs_order(0, range(len(action)), lambda c, s: action[s][c],
                                        ct.num_cosets + 1)
    paths = [()] * ct.num_cosets  # coset -> generator symbols that reach it from 0
    for c, p, s in zip(order[1:], parent[1:], edge[1:]):
        paths[c] = paths[order[p]] + (s,)

    def follow(x: int, y: int) -> int:
        for s in paths[y]:
            x = action[s][x]
        return x

    names = pres.generators
    sep = "" if all(len(name) == 1 for name in names) else "*"
    group = _bfs_group(0, [perm[0] for perm in action], follow, config.order_max(),
                       lambda c: sep.join(names[s] for s in paths[c]) or "1")[0]
    if group.order != ct.num_cosets:
        raise AssertionError("regular action closure disagrees with coset count")
    return group
