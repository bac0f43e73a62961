"""Finitely presented 2-categories.

A presentation has a finite set of zero-cell labels, generator
one-cells (edges), generator two-cells between composable paths, and
optional relations between two-cell expressions.  One-cells of the free
2-category are paths of generators.

Convention: a :class:`Path` stores labels in composition order, i.e.
``labels[0]`` is the *outermost* (last applied) generator, so the
one-cell of ``(f, g)`` is ``img(f) . img(g)`` and the path runs
``src(g) -> tgt(f)``.  Concatenation ``p * q`` therefore requires
``src(p) == tgt(q)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import IllTypedPath

__all__ = [
    "GenOneCell",
    "GenTwoCell",
    "Path",
    "PresentedTwoCat",
    "EGen",
    "EId",
    "EDagger",
    "EVComp",
    "EHComp",
]


@dataclass(frozen=True)
class Path:
    labels: tuple[str, ...]
    src: str
    tgt: str

    def __post_init__(self):
        if not self.labels and self.src != self.tgt:
            raise IllTypedPath("empty path must start and end at the same cell")

    def __len__(self):
        return len(self.labels)

    def __mul__(self, other: "Path") -> "Path":
        if self.src != other.tgt:
            raise IllTypedPath(f"cannot concatenate {self} * {other}")
        return Path(self.labels + other.labels, other.src, self.tgt)

    def __repr__(self):
        inner = ".".join(self.labels) if self.labels else f"1_{self.src}"
        return f"<{inner}: {self.src}->{self.tgt}>"


@dataclass(frozen=True)
class GenOneCell:
    label: str
    src: str
    tgt: str


@dataclass(frozen=True)
class GenTwoCell:
    label: str
    source: Path
    target: Path


# --- two-cell expressions (used for relations and whiskering) -------------

@dataclass(frozen=True)
class EGen:
    label: str


@dataclass(frozen=True)
class EId:
    path: Path


@dataclass(frozen=True)
class EDagger:
    expr: object


@dataclass(frozen=True)
class EVComp:
    """Vertical composite; ``exprs[0]`` acts last."""
    exprs: tuple


@dataclass(frozen=True)
class EHComp:
    """Horizontal composite, left to right."""
    exprs: tuple


@dataclass(frozen=True)
class PresentedTwoCat:
    zero_cells: tuple[str, ...]
    gen_one_cells: tuple[GenOneCell, ...]
    gen_two_cells: tuple[GenTwoCell, ...] = ()
    relations: tuple[tuple[object, object], ...] = ()
    _gens: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if not self.zero_cells:
            raise IllTypedPath("a presentation needs at least one zero-cell")
        for k, c in enumerate(self.zero_cells):
            if c in self.zero_cells[:k]:
                raise IllTypedPath(f"duplicate zero-cell label {c}")
        gens = {}
        for g in self.gen_one_cells:
            if g.src not in self.zero_cells or g.tgt not in self.zero_cells:
                raise IllTypedPath(f"generator {g.label} has unknown endpoints")
            if g.label in gens:
                raise IllTypedPath(f"duplicate generator label {g.label}")
            gens[g.label] = g
        object.__setattr__(self, "_gens", gens)
        for k, f in enumerate(self.gen_two_cells):
            if f.label in (t.label for t in self.gen_two_cells[:k]):
                raise IllTypedPath(f"duplicate generator two-cell label {f.label}")
            for p in (f.source, f.target):
                self._validate(p)
            if (f.source.src, f.source.tgt) != (f.target.src, f.target.tgt):
                raise IllTypedPath(f"two-cell {f.label} is not between parallel paths")
        for lhs, rhs in self.relations:
            self.expr_type(lhs)
            self.expr_type(rhs)

    def gen(self, label: str) -> GenOneCell:
        try:
            return self._gens[label]
        except KeyError:
            raise IllTypedPath(f"unknown generator {label}") from None

    def gen2(self, label: str) -> GenTwoCell:
        for f in self.gen_two_cells:
            if f.label == label:
                return f
        raise IllTypedPath(f"unknown generator two-cell {label}")

    def _validate(self, p: Path) -> None:
        at = p.src
        for lab in reversed(p.labels):
            g = self.gen(lab)
            if g.src != at:
                raise IllTypedPath(f"path {p} is not composable")
            at = g.tgt
        if at != p.tgt:
            raise IllTypedPath(f"path {p} has wrong target")

    def path(self, labels, src: str | None = None) -> Path:
        """Build and validate a path from labels in composition order."""
        labels = tuple(labels)
        if not labels:
            if src is None or src not in self.zero_cells:
                raise IllTypedPath("empty path needs a valid zero-cell")
            return Path((), src, src)
        gens = [self.gen(lab) for lab in labels]
        p = Path(labels, gens[-1].src, gens[0].tgt)
        self._validate(p)
        return p

    def empty_path(self, a: str) -> Path:
        return self.path((), src=a)

    def gen_paths(self) -> list[Path]:
        return [self.path((g.label,)) for g in self.gen_one_cells]

    def composable_pairs(self) -> list[tuple[Path, Path]]:
        out = []
        for g in self.gen_one_cells:
            for h in self.gen_one_cells:
                if h.tgt == g.src:
                    out.append((self.path((g.label,)), self.path((h.label,))))
        return out

    def composable_triples(self) -> list[tuple[Path, Path, Path]]:
        out = []
        for g in self.gen_one_cells:
            for h in self.gen_one_cells:
                if h.tgt != g.src:
                    continue
                for k in self.gen_one_cells:
                    if k.tgt == h.src:
                        out.append((self.path((g.label,)),
                                    self.path((h.label,)),
                                    self.path((k.label,))))
        return out

    def expr_type(self, e) -> tuple[Path, Path]:
        """(source path, target path) of a two-cell expression."""
        if isinstance(e, EGen):
            f = self.gen2(e.label)
            return f.source, f.target
        if isinstance(e, EId):
            self._validate(e.path)
            return e.path, e.path
        if isinstance(e, EDagger):
            s, t = self.expr_type(e.expr)
            return t, s
        if isinstance(e, (EVComp, EHComp)) and not e.exprs:
            raise IllTypedPath(f"empty composite {e!r}")
        if isinstance(e, EVComp):
            types = [self.expr_type(x) for x in e.exprs]
            for upper, lower in zip(types[:-1], types[1:]):
                if upper[0] != lower[1]:
                    raise IllTypedPath("vertical composite does not chain")
            return types[-1][0], types[0][1]
        if isinstance(e, EHComp):
            types = [self.expr_type(x) for x in e.exprs]
            s = types[0][0]
            t = types[0][1]
            for s2, t2 in types[1:]:
                s = s * s2
                t = t * t2
            return s, t
        raise IllTypedPath(f"unknown expression node {e!r}")
