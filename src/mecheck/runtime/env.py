"""Variable environments for rule evaluation.

A frame is a plain dict from variable name to value.  The EnvStack is a
stack of frames; name lookup walks from the innermost frame out, so inner
bindings shadow outer ones.  Rebinding a name within a frame replaces it.
"""

from __future__ import annotations


class UnboundVariable(KeyError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


class EnvStack:
    def __init__(self):
        self.frames: list[dict[str, object]] = []

    @property
    def depth(self) -> int:
        return len(self.frames)

    def push(self) -> dict[str, object]:
        frame: dict[str, object] = {}
        self.frames.append(frame)
        return frame

    def pop(self) -> dict[str, object]:
        if not self.frames:
            raise IndexError("pop from an empty environment stack")
        return self.frames.pop()

    def top(self) -> dict[str, object]:
        if not self.frames:
            raise IndexError("environment stack is empty")
        return self.frames[-1]

    def lookup(self, name: str) -> object:
        for frame in reversed(self.frames):
            if name in frame:
                return frame[name]
        raise UnboundVariable(name)
