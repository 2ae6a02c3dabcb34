"""Graph walks, each in one place, and the concept hierarchy both structures build on."""

from __future__ import annotations

from typing import Container, Iterable, Iterator, Mapping

from .errors import UnknownConceptError


def descendants(children: Mapping, start: str) -> set[str]:
    """``start`` and every node reachable from it through ``children``
    (node → successors): O(answer), iterative."""
    seen = {start}
    queue = [start]
    while queue:
        for child in children.get(queue.pop(), ()):
            if child not in seen:
                seen.add(child)
                queue.append(child)
    return seen


def walk(children: Mapping, roots: Iterable, done: Container = ()) -> Iterator[tuple[str, bool]]:
    """Depth-first from ``roots`` through ``children`` (node → successors),
    in root and child order: ``(node, True)`` on entering a node, ``(node,
    False)`` on leaving it.  A node is entered at most once, never while it
    is in ``done`` (read as the walk goes).  Iterative: O(nodes + edges)."""
    entered = set()
    path = []  # the entered nodes not yet left that have children
    pending = [iter(roots)]
    while pending:
        for node in pending[-1]:
            if node in entered or node in done:
                continue
            entered.add(node)
            yield node, True
            kids = children.get(node)
            if kids:
                path.append(node)
                pending.append(iter(kids))
                break
            yield node, False
        else:
            pending.pop()
            if path:
                yield path.pop(), False


def find_cycle(edges: Iterable[tuple[str, str]]) -> list[str] | None:
    """Return the nodes of one cycle of a directed edge set, first node
    repeated at the end, or None: ``cycle_in`` over the edges' successor
    map, nodes and successors in sorted order, so the cycle reported is
    deterministic."""
    successors: dict[str, list[str]] = {}
    for source, target in sorted(edges):
        successors.setdefault(source, []).append(target)
    return cycle_in(successors)


def cycle_in(successors: Mapping) -> list[str] | None:
    """Return the nodes of one cycle of ``successors`` (node → successors),
    first node repeated at the end, or None.

    Depth-first from each key in key order, successors in the order given;
    iterative, so long paths cannot exhaust the interpreter's recursion
    limit.  O(nodes + edges).
    """
    done: set[str] = set()
    for start in successors:
        if start in done:
            continue
        path = [start]
        on_path = {start}
        pending = [iter(successors[start])]
        while pending:
            for nxt in pending[-1]:
                if nxt in on_path:
                    return path[path.index(nxt):] + [nxt]
                if nxt not in done:
                    path.append(nxt)
                    on_path.add(nxt)
                    pending.append(iter(successors.get(nxt, ())))
                    break
            else:
                node = path.pop()
                on_path.discard(node)
                done.add(node)
                pending.pop()
    return None


class Hierarchy:
    """What the projected taxonomy and the expert tree share: ``concepts``
    by name, the parent → children view ``_children`` and the ``_roots``,
    set when built."""

    def __contains__(self, name: str) -> bool:
        return name in self.concepts

    def require(self, *names: str) -> None:
        """Raise ``UnknownConceptError`` for the first unknown of ``names``."""
        for name in names:
            if name not in self.concepts:
                raise UnknownConceptError(f"unknown concept: {name!r}")

    def children_view(self) -> Mapping:
        """Parent → direct children; childless concepts are absent.  The
        view is shared: read it, never mutate it."""
        return self._children

    def children(self, name: str) -> list[str]:
        return list(self._children.get(name, ()))

    def roots(self) -> list[str]:
        """The concepts with no parent: O(answer)."""
        return list(self._roots)

    def subsumed_closure(self, name: str) -> set[str]:
        """``name`` and everything it subsumes, as a new set: O(answer).
        A leaf's is ``{name}``, made without starting a walk."""
        self.require(name)
        if name not in self._children:
            return {name}
        return descendants(self._children, name)
