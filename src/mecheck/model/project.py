"""Project model assembly.

build_model walks a project directory once and parses everything in one
pass: every XML file, and every Java file, which is read and tokenized
once, at declaration level (member bodies yield only their watched calls;
see javasrc).  Its declarations come from the one scan the tokenizer ran
over those tokens, which scan_declarations hands out; for each class it
keeps, build_model makes the ClassItem and
javasrc.extract_members builds that class's member items from the same
tokens before they are dropped, so the model never goes back to a source
file.

File discovery is deterministic: relative paths, sorted lexicographically
with '/' separators.  Directories whose name matches an ignore glob
(default: target, build, out, .git) are pruned, and files whose name
matches one are skipped.  Unreadable or malformed files are skipped with
a warning; so is a .java or .xml path that is not a regular file (a FIFO,
socket or device, which a read could block on forever), without being
opened.  A duplicate fully-qualified class name keeps the first
occurrence in path order and warns about the rest.
"""

from __future__ import annotations

import fnmatch
import os
import stat
from pathlib import Path

from mecheck.model import javasrc
from mecheck.model.items import CallSite, ClassItem, XmlFile
from mecheck.model.xmldoc import MalformedXmlError, parse_xml
from mecheck.record import Record

DEFAULT_IGNORE_GLOBS = ("target", "build", "out", ".git")
NOT_REGULAR = "skipped: not a regular file"


class RootNotFound(Exception):
    pass


class ModelWarning(Record):
    __slots__ = ("path", "message")
    path: str
    message: str


class ProjectModel:
    """Everything the built-in query functions read."""

    def __init__(self, root: Path):
        self.root = root
        self.xml_files: list[XmlFile] = []
        self.classes: list[ClassItem] = []
        self.class_by_fqn: dict[str, ClassItem] = {}
        self.classes_by_sn: dict[str, list[ClassItem]] = {}
        self.warnings: list[ModelWarning] = []
        self.java_file_count = 0

    def warn(self, path: str, message: str) -> None:
        self.warnings.append(ModelWarning(path, message))

    def call_sites(self, callee_name: str) -> list[CallSite]:
        """All captured call sites of one watched callee, model order."""
        out: list[CallSite] = []
        for cls in self.classes:
            for site in cls.members().call_sites:
                if site.callee_name == callee_name:
                    out.append(site)
        return out


def _is_ignored(name: str, globs: tuple[str, ...]) -> bool:
    return any(fnmatch.fnmatch(name, glob) for glob in globs)


def _not_regular(path: str | Path) -> bool:
    """Whether path is there but is not a regular file.  A path that
    cannot be looked up is left to the reader, which reports why."""
    try:
        return not stat.S_ISREG(os.stat(path).st_mode)
    except OSError:
        return False


def build_model(
    root: str | Path, ignore_globs: tuple[str, ...] = DEFAULT_IGNORE_GLOBS
) -> ProjectModel:
    """Walk the project root and build the queryable model."""
    root_path = Path(root)
    if not root_path.is_dir():
        raise RootNotFound(f"project root is not a directory: {root}")
    model = ProjectModel(root_path)

    xml_paths: list[str] = []
    java_paths: list[str] = []
    for dirpath, dirnames, filenames in os.walk(root_path):
        rel_dir = Path(dirpath).relative_to(root_path)
        rel_prefix = rel_dir.as_posix() + "/" if rel_dir.parts else ""
        dirnames[:] = sorted(
            d for d in dirnames if not _is_ignored(d, ignore_globs)
        )
        for fname in filenames:
            # the directories above were pruned already
            if _is_ignored(fname, ignore_globs):
                continue
            rel = rel_prefix + fname
            lower = fname.lower()
            if lower.endswith(".xml"):
                xml_paths.append(rel)
            elif lower.endswith(".java"):
                java_paths.append(rel)
    xml_paths.sort()
    java_paths.sort()

    for rel in xml_paths:
        if _not_regular(root_path / rel):
            model.warn(rel, NOT_REGULAR)
            continue
        try:
            model.xml_files.append(parse_xml(root_path / rel, rel))
        except MalformedXmlError as exc:
            model.warn(rel, f"skipped malformed XML: {exc.reason} (line {exc.line})")

    # str(root_path / rel), which has no './' prefix, without a Path per file
    base = "" if str(root_path) == "." else str(root_path)
    for rel in java_paths:
        path = os.path.join(base, rel)
        if _not_regular(path):
            model.warn(rel, NOT_REGULAR)
            continue
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as exc:
            model.warn(rel, f"skipped unreadable Java source: {exc}")
            continue
        model.java_file_count += 1
        toks = javasrc.tokenize_java(text)
        decls = javasrc.scan_declarations(toks)
        toks = list(toks)  # extract_members indexes a plain list faster
        for raw in decls.types:
            chain = ".".join(raw.chain)
            fqn = f"{decls.package}.{chain}" if decls.package else chain
            if fqn in model.class_by_fqn:
                model.warn(
                    rel,
                    f"duplicate class {fqn}; keeping the one from "
                    f"{model.class_by_fqn[fqn].file_path}",
                )
                continue
            cls = ClassItem(
                simple_name=raw.simple_name,
                fqn=fqn,
                kind=raw.kind,
                supertype_names=raw.supertype_names,
                annotations=raw.annotations,
                file_path=rel,
                line=raw.line,
            )
            cls._members = javasrc.extract_members(toks, raw, cls)
            model.classes.append(cls)
            model.class_by_fqn[fqn] = cls
            model.classes_by_sn.setdefault(raw.simple_name, []).append(cls)

    return model
