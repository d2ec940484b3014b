"""Deterministic generator of synthetic Spring/JUnit projects.

    python3 bench/gen.py --workload java-wide --seed 1 --out DIR

writes DIR/project (the tree mecheck checks) and DIR/manifest.json (the
injected defects the reports must match).  The same workload and seed
give a byte-identical tree and manifest.

Every workload injects a fixed number of defects per rule; the seed only
chooses names, values and where each defect lands.  Each defect carries an
identifier that no other defect of the same rule contains, and that
identifier must appear in the message of exactly one finding of that rule.
Everything else in the tree is consistent, so the built-in pack reports
the injected defects and nothing more.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

RULES = tuple(f"r{i}" for i in range(1, 16))


@dataclass(frozen=True)
class Shape:
    bean_classes: int  # Java classes that XML beans instantiate
    xml_files: int
    beans_per_xml: int
    props_per_bean: int  # <property> elements per bean
    ctor_args_per_bean: int  # <constructor-arg> elements per bean (0..2)
    lookups: int  # valid getBean calls
    ghost_lookups: int  # r15 defects; 0 leaves r15 to other workloads


# Sizes keep one check at about 3-5 s on a 2-core machine, so that a run of
# the benchmark holds several checks and its median is steady.
WORKLOADS = {
    # Java volume dominates: tokenize, declaration scan, member extraction.
    "java-wide": Shape(
        bean_classes=1000,
        xml_files=100,
        beans_per_xml=10,
        props_per_bean=1,
        ctor_args_per_bean=1,
        lookups=20,
        ghost_lookups=3,
    ),
    # getBean name lookups x bean definitions: r15's nested exists.
    "getbean-lookups": Shape(
        bean_classes=240,
        xml_files=40,
        beans_per_xml=50,
        props_per_bean=1,
        ctor_args_per_bean=0,
        lookups=400,
        ghost_lookups=10,
    ),
    # Many beans with properties, constructor-args and init-methods.
    "bean-props": Shape(
        bean_classes=180,
        xml_files=35,
        beans_per_xml=100,
        props_per_bean=2,
        ctor_args_per_bean=2,
        lookups=0,
        ghost_lookups=0,
    ),
}

PROPS = (
    "name", "size", "timeout", "endpoint", "retries", "label", "enabled",
    "owner", "region", "weight", "prefix", "limit", "mode", "quota",
)
PROP_TYPES = ("String", "int", "long", "boolean")
DEFECTS_PER_RULE = 3
LOOKUPS_PER_CLIENT = 20
MODULES = 20
MAIN = "src/main/java"
TEST = "src/test/java"
RES = "src/main/resources"


def _rng(workload: str, seed: int) -> random.Random:
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass
class BeanClass:
    pkg: str
    sn: str
    props: tuple[str, ...]  # each has a field and a setter
    types: dict[str, str]
    ctor: tuple[str, ...]  # parameter names of the two-argument constructor

    @property
    def fqn(self) -> str:
        return f"{self.pkg}.{self.sn}"


class Project:
    """Accumulates files and the defect manifest of one generated tree."""

    def __init__(self) -> None:
        self.files: dict[str, str] = {}
        self.defects: dict[str, list[str]] = {r: [] for r in RULES}

    def add(self, rel: str, text: str) -> None:
        assert rel not in self.files, rel
        self.files[rel] = text

    def defect(self, rule: str, ident: str) -> str:
        self.defects[rule].append(ident)
        return ident

    def java(self, root: str, pkg: str, sn: str, body: str, imports=()) -> None:
        head = f"package {pkg};\n\n"
        if imports:
            head += "".join(f"import {i};\n" for i in imports) + "\n"
        self.add(f"{root}/{pkg.replace('.', '/')}/{sn}.java", head + body)


def _cap(name: str) -> str:
    return name[:1].upper() + name[1:]


def _bean_class_source(bc: BeanClass, rng: random.Random) -> str:
    lines = [f"/** Generated component {bc.sn}. */", f"public class {bc.sn} {{"]
    for p in bc.props:
        lines.append(f"    private {bc.types[p]} {p};")
    lines.append("    private final List<String> history = new ArrayList<>();")
    lines.append("")
    lines.append(f"    public {bc.sn}() {{")
    lines.append("    }")
    lines.append("")
    a, b = bc.ctor
    lines.append(f"    public {bc.sn}({bc.types[a]} {a}, {bc.types[b]} {b}) {{")
    lines.append(f"        this.{a} = {a};")
    lines.append(f"        this.{b} = {b};")
    lines.append("    }")
    for p in bc.props:
        t = bc.types[p]
        lines.append("")
        lines.append(f"    public void set{_cap(p)}({t} {p}) {{")
        lines.append(f"        this.{p} = {p};")
        lines.append(f'        history.add("{p}");')
        lines.append("    }")
        lines.append("")
        lines.append(f"    public {t} get{_cap(p)}() {{")
        lines.append(f"        return {p};")
        lines.append("    }")
    lines.append("")
    lines.append("    public void init() {")
    lines.append('        history.add("init");')
    lines.append("    }")
    lines.append("")
    lines.append("    public void close() {")
    lines.append("        history.clear();")
    lines.append("    }")
    mult = rng.randint(2, 97)
    lines.append("")
    lines.append(f"    /** One pipeline step of {bc.sn}. */")
    lines.append("    public Map<String, Integer> stage(List<String> input, int bound) {")
    lines.append("        Map<String, Integer> out = new HashMap<>();")
    lines.append("        for (int i = 0; i < input.size() && i < bound; i++) {")
    lines.append("            String key = input.get(i).trim();")
    lines.append(f"            int score = key.length() * {mult} + i % 3;")
    lines.append("            if (score > bound) {")
    lines.append('                out.put(key + "-hi", score);')
    lines.append("            } else {")
    lines.append("                out.merge(key, 1, Integer::sum);")
    lines.append("            }")
    lines.append("        }")
    lines.append('        history.add("stage:" + out.size());')
    lines.append("        return out;")
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _make_bean_classes(shape: Shape, rng: random.Random, proj: Project) -> list[BeanClass]:
    classes = []
    for i in range(shape.bean_classes):
        pkg = f"com.acme.m{i % MODULES:02d}"
        props = tuple(sorted(rng.sample(PROPS, 4)))
        types = {p: rng.choice(PROP_TYPES) for p in props}
        ctor = tuple(rng.sample(props, 2))
        bc = BeanClass(pkg, f"Svc{i:04d}", props, types, ctor)
        classes.append(bc)
        proj.java(
            MAIN,
            pkg,
            bc.sn,
            _bean_class_source(bc, rng),
            imports=("java.util.ArrayList", "java.util.HashMap", "java.util.List", "java.util.Map"),
        )
    return classes


def _bean_xml(bean_id: str, bc: BeanClass, shape: Shape, rng: random.Random,
              extra: list[str], init: str = "init") -> str:
    head = f'    <bean id="{bean_id}" class="{bc.fqn}" init-method="{init}" destroy-method="close">'
    body = []
    a, b = bc.ctor
    ctor_forms = [
        f'        <constructor-arg index="0" type="{bc.types[a]}" value="{rng.randint(1, 9)}"/>',
        f'        <constructor-arg name="{b}" value="{rng.randint(1, 9)}"/>',
    ]
    body.extend(ctor_forms[: shape.ctor_args_per_bean])
    for p in rng.sample(bc.props, shape.props_per_bean):
        body.append(f'        <property name="{p}" value="v{rng.randint(0, 999)}"/>')
    body.extend(extra)
    return "\n".join([head, *body, "    </bean>"])


def generate(workload: str, seed: int) -> tuple[dict[str, str], dict]:
    """Return (files, manifest): relative path -> text, and the defects."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    shape = WORKLOADS[workload]
    rng = _rng(workload, seed)
    proj = Project()
    classes = _make_bean_classes(shape, rng, proj)
    nd = DEFECTS_PER_RULE

    # -- XML bean definitions, with r2..r7 defects on chosen beans ----------
    n_beans = shape.xml_files * shape.beans_per_xml
    bean_class = [classes[rng.randrange(len(classes))] for _ in range(n_beans)]
    bean_ids = [f"bean{j:05d}" for j in range(n_beans)]
    slots = rng.sample(range(n_beans), 5 * nd)
    r3_at, r4_at, r5_at, r6_at, r7_at = (slots[k * nd:(k + 1) * nd] for k in range(5))
    # r5 names the bean class in its message: its beans need distinct classes
    used = set()
    for j in r5_at:
        while bean_class[j].sn in used:
            bean_class[j] = classes[rng.randrange(len(classes))]
        used.add(bean_class[j].sn)
    extras: dict[int, list[str]] = {}
    init_of: dict[int, str] = {}
    for k, j in enumerate(r3_at):
        t = proj.defect("r3", f"GhostType{k:04d}")
        extras.setdefault(j, []).append(f'        <constructor-arg type="{t}" value="x"/>')
    for k, j in enumerate(r4_at):
        n = proj.defect("r4", f"ghostArg{k:04d}")
        extras.setdefault(j, []).append(f'        <constructor-arg name="{n}" value="x"/>')
    for j in r5_at:
        proj.defect("r5", bean_class[j].fqn)
        extras.setdefault(j, []).append('        <constructor-arg index="7" value="x"/>')
    for k, j in enumerate(r6_at):
        init_of[j] = proj.defect("r6", f"ghostInit{k:04d}")
    for k, j in enumerate(r7_at):
        p = proj.defect("r7", f"ghostProp{k:04d}")
        extras.setdefault(j, []).append(f'        <property name="{p}" value="x"/>')

    xml_names = []
    for f in range(shape.xml_files):
        mod = f % MODULES
        rel = f"{RES}/m{mod:02d}/beans-{f:03d}.xml"
        xml_names.append(f"beans-{f:03d}.xml")
        parts = ['<?xml version="1.0" encoding="UTF-8"?>',
                 '<beans xmlns="http://www.springframework.org/schema/beans">']
        for j in range(f * shape.beans_per_xml, (f + 1) * shape.beans_per_xml):
            parts.append(_bean_xml(bean_ids[j], bean_class[j], shape, rng,
                                   extras.get(j, []), init_of.get(j, "init")))
        if f == 0:
            parts.append('    <bean id="dataSource" '
                         'class="org.springframework.jdbc.datasource.DriverManagerDataSource"/>')
            for k in range(nd):
                t = proj.defect("r2", f"MissingType{k:04d}")
                parts.append(f'    <bean id="orphan{k:04d}" class="com.acme.ghost.{t}"/>')
        parts.append("</beans>")
        proj.add(rel, "\n".join(parts) + "\n")

    # -- application entry point: r1 --------------------------------------
    ctx_lines = [f'        contexts.add(new ClassPathXmlApplicationContext("{xml_names[k]}"));'
                 for k in range(min(3, len(xml_names)))]
    for k in range(nd):
        loc = proj.defect("r1", f"ghost-ctx-{k:04d}.xml")
        ctx_lines.append(f'        contexts.add(new ClassPathXmlApplicationContext("{loc}"));')
    proj.java(MAIN, "com.acme.app", "Main", "\n".join([
        "public class Main {",
        "    public static void main(String[] args) {",
        "        List<ApplicationContext> contexts = new ArrayList<>();",
        *ctx_lines,
        "        System.out.println(contexts.size());",
        "    }",
        "}",
    ]) + "\n", imports=("java.util.ArrayList", "java.util.List",
                        "org.springframework.context.ApplicationContext",
                        "org.springframework.context.support.ClassPathXmlApplicationContext"))

    # -- getBean clients: r15 ------------------------------------------------
    # r15 scans the beans in document order until a lookup matches, so a
    # lookup costs about its target's position.  Evenly spaced targets make
    # that cost the same for every seed; the seed only shuffles their order.
    targets = []
    for k in range(shape.lookups):
        j = (k * n_beans + n_beans // 2) // shape.lookups
        if k % 20 == 19:
            targets.append(f"{bean_class[j].sn}.class")
        else:
            targets.append(f'"{bean_ids[j]}"')
    rng.shuffle(targets)
    for k in range(shape.ghost_lookups):
        targets.insert(rng.randrange(len(targets) + 1),
                       '"' + proj.defect("r15", f"ghostBean{k:04d}") + '"')
    per = LOOKUPS_PER_CLIENT
    for c in range(0, len(targets), per):
        calls = [f"        found.add(ctx.getBean({t}));" for t in targets[c:c + per]]
        proj.java(MAIN, "com.acme.client", f"Client{c // per:04d}", "\n".join([
            f"public class Client{c // per:04d} {{",
            "    private final ApplicationContext ctx;",
            "",
            f"    public Client{c // per:04d}(ApplicationContext ctx) {{",
            "        this.ctx = ctx;",
            "    }",
            "",
            "    public List<Object> wire() {",
            "        List<Object> found = new ArrayList<>();",
            *calls,
            "        return found;",
            "    }",
            "}",
        ]) + "\n", imports=("java.util.ArrayList", "java.util.List",
                            "org.springframework.context.ApplicationContext"))

    # -- configuration classes: r14 ------------------------------------------
    cfg = [f'@ImportResource(location = {{"classpath:{xml_names[0]}"}})']
    for k in range(nd):
        cfg.append(f'@ImportResource(location = {{"classpath:{proj.defect("r14", f"ghost-res-{k:04d}.xml")}"}})')
    for k, anno in enumerate(cfg):
        proj.java(MAIN, "com.acme.config", f"AppConfig{k:04d}",
                  f"@Configuration\n{anno}\npublic class AppConfig{k:04d} {{\n}}\n",
                  imports=("org.springframework.context.annotation.Configuration",
                           "org.springframework.context.annotation.ImportResource"))

    _junit_classes(proj, nd, rng)
    return proj.files, _manifest(workload, seed, proj)


JUNIT_IMPORTS = (
    "java.util.Arrays", "java.util.Collection",
    "org.junit.Test", "org.junit.runner.RunWith",
    "org.junit.runners.Parameterized", "org.junit.runners.Parameterized.Parameters",
    "org.junit.runners.Suite", "org.junit.runners.Suite.SuiteClasses",
)


def _junit_classes(proj: Project, nd: int, rng: random.Random) -> None:
    """Clean JUnit classes for every shape r8..r13 check, plus defects."""
    pkg = "com.acme.tests"

    def test_class(sn: str, annos: str, body: list[str], extends: str = "") -> None:
        ext = f" extends {extends}" if extends else ""
        proj.java(TEST, pkg, sn, f"{annos}public class {sn}{ext} {{\n" + "\n".join(body) + "\n}\n",
                  imports=JUNIT_IMPORTS)

    test_method = ["    @Test", "    public void checksValue() {", "    }"]
    params_method = ["    @Parameters", "    public static Collection<Object[]> data() {",
                     "        return Arrays.asList(new Object[][] {{1}, {2}});", "    }"]
    test_class("BaseCase", "", test_method)
    members = []
    for k in range(6):
        sn = f"GoodCase{k:04d}Test"
        members.append(sn)
        if k % 2:
            test_class(sn, "", [], extends="BaseCase")  # runnable via its family
        else:
            test_class(sn, "", test_method)
        test_class(f"ParamCase{k:04d}Test", "@RunWith(Parameterized.class)\n",
                   params_method + test_method)
    for k in range(3):
        test_class(f"GoodSuite{k:04d}", "@RunWith(Suite.class)\n"
                   f"@SuiteClasses({{{members[k]}.class, {members[k + 3]}.class}})\n", [])

    for k in range(nd):
        sn = f"NoParams{k:04d}Test"
        proj.defect("r8", f"{pkg}.{sn}")
        test_class(sn, "@RunWith(Parameterized.class)\n", test_method)
        sn = f"NoTests{k:04d}Test"
        proj.defect("r9", f"{pkg}.{sn}")
        test_class(sn, "@RunWith(Parameterized.class)\n", params_method)
        sn = f"NoMembers{k:04d}Suite"
        proj.defect("r10", f"{pkg}.{sn}")
        test_class(sn, "@RunWith(Suite.class)\n", [])
        sn = f"NoRunner{k:04d}Suite"
        proj.defect("r11", f"{pkg}.{sn}")
        test_class(sn, f"@SuiteClasses({{{rng.choice(members)}.class}})\n", [])
        helper = proj.defect("r12", f"HelperNoTest{k:04d}")
        test_class(helper, "", ["    public static int helps() {", "        return 1;", "    }"])
        test_class(f"HelperSuite{k:04d}", "@RunWith(Suite.class)\n"
                   f"@SuiteClasses({{{helper}.class}})\n", [])
        name = proj.defect("r13", f"badParams{k:04d}")
        test_class(f"BadSource{k:04d}", "", [
            "    @Parameters", f"    public static int {name}() {{", "        return 1;", "    }"])


def _manifest(workload: str, seed: int, proj: Project) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "java_files": sum(1 for p in proj.files if p.endswith(".java")),
        "xml_files": sum(1 for p in proj.files if p.endswith(".xml")),
        "defects": {
            r: {"count": len(names), "names": names}
            for r, names in proj.defects.items() if names
        },
    }


def write_tree(files: dict[str, str], root: Path) -> None:
    for rel in sorted(files):
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(files[rel], encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="empty or missing directory")
    args = ap.parse_args(argv)
    out = Path(args.out)
    files, manifest = generate(args.workload, args.seed)
    write_tree(files, out / "project")
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"{manifest['java_files']} Java and {manifest['xml_files']} XML files in {out / 'project'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
