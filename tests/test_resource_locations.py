"""Configuration locations as Spring reads them: r1 and r14 end to end.

@ImportResource takes its locations from value or locations, both arrays,
and r14 also reads location; every element is checked, and so is the
resource of every <import> of a beans file's root.  Locations of
ClassPathXmlApplicationContext and @ImportResource go through Spring's
PathMatchingResourcePatternResolver, so an Ant-style pattern counts as
found when it names an XML file of the project, and is reported when it
names none.  A ${...} placeholder, which Spring fills in from the
environment, counts as found.
"""

import pytest

from mecheck import runner
from mecheck.builtins import resolve_resource_path
from mecheck.model.project import build_model

R14_MESSAGE = "ImportResource location {} on class com.acme.{} does not point at an existing file"
R1_MESSAGE = ("Configuration file {} passed to ClassPathXmlApplicationContext "
              "does not exist in the project")
BEANS = "<beans><bean id='a' class='java.lang.Object'/></beans>"


def write_project(root, files):
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    return root


def config_class(name, annotation):
    return (
        "package com.acme;\n"
        "import org.springframework.context.annotation.ImportResource;\n"
        f"{annotation}\n"
        f"public class {name} {{}}\n"
    )


def loader_class(locations):
    loads = "".join(f'    new ClassPathXmlApplicationContext("{loc}");\n' for loc in locations)
    return (
        "package com.acme;\n"
        "public class Main {\n"
        "  void run() {\n"
        f"{loads}"
        "  }\n"
        "}\n"
    )


def findings(root, rule_prefix):
    summary = runner.run_checker(runner.CheckerConfig(project_root=str(root)))
    assert not summary.diagnostics
    return [r.message for r in summary.reports if r.rule_name.startswith(rule_prefix)]


@pytest.mark.parametrize("annotation, missing", [
    ('@ImportResource("classpath:ghost-a.xml")', ["classpath:ghost-a.xml"]),
    ('@ImportResource({"app.xml", "ghost-a.xml"})', ["ghost-a.xml"]),
    ('@ImportResource(value = {"ghost-a.xml", "ghost-b.xml"})', ["ghost-a.xml", "ghost-b.xml"]),
    ('@ImportResource(locations = {"classpath:ghost-b.xml", "ghost-c.xml"})',
     ["classpath:ghost-b.xml", "ghost-c.xml"]),
    ('@ImportResource(locations = "classpath:app.xml")', []),
    ('@ImportResource(location = "ghost-d.xml")', ["ghost-d.xml"]),
    ('@ImportResource(location = {"app.xml", "ghost-d.xml", "ghost-e.xml"})',
     ["ghost-d.xml", "ghost-e.xml"]),
    ('@ImportResource', []),
    ('@ImportResource("classpath:${app.config:beans.xml}")', []),
    ('@ImportResource(locations = {"${conf.dir}/ghost-a.xml", "ghost-b.xml"})', ["ghost-b.xml"]),
], ids=["bare-value", "bare-array", "value-array", "locations-array", "locations-found",
        "location", "location-array", "no-attributes", "placeholder", "placeholder-array"])
def test_r14_checks_every_location_element(tmp_path, annotation, missing):
    root = write_project(tmp_path, {
        "src/main/resources/app.xml": BEANS,
        "src/main/java/com/acme/AppConfig.java": config_class("AppConfig", annotation),
    })
    assert findings(root, "r14") == [R14_MESSAGE.format(loc, "AppConfig") for loc in missing]


WILDCARD_PROJECT = {
    "src/main/resources/conf/app-a.xml": BEANS,
    "src/main/resources/conf/deep/nested/more-b.xml": BEANS,
    "WEB-INF/web-ctx.xml": BEANS,
}


@pytest.mark.parametrize("location, found", [
    ("conf/app-*.xml", True),
    ("classpath*:conf/*.xml", True),
    ("conf/app-?.xml", True),
    ("classpath:/conf/app-?.xml", True),
    ("src/main/resources/conf/*-a.xml", True),  # relative to the project root
    ("conf/**/more-*.xml", True),  # ** spans segments
    ("**/app-a.xml", True),
    ("conf/**", True),
    ("other/app-*.xml", True),  # the basename fallback, as for plain names
    ("web-*.xml", True),  # under another resource root
    ("conf/app-??.xml", False),  # ? is exactly one character
    ("conf/*.properties", False),
    ("conf/app-*/x.xml", False),  # * stays within a segment
    ("ghost-*.xml", False),
    ("classpath*:../conf/*.xml", False),
    ("${app.config}", True),  # Spring fills a placeholder in
    ("classpath:${app.config:ghost.xml}", True),
    ("classpath*:${conf.dir}/ghost-*.xml", True),
], ids=lambda v: str(v))
def test_wildcard_locations_resolve_like_spring(tmp_path, location, found):
    root = write_project(tmp_path, WILDCARD_PROJECT)
    model = build_model(root)
    assert (resolve_resource_path(location, model) is not None) == found


def test_r1_and_r14_accept_wildcards_that_match_and_report_the_rest(tmp_path):
    root = write_project(tmp_path, {
        **WILDCARD_PROJECT,
        "src/main/java/com/acme/Main.java": loader_class(
            ["conf/app-*.xml", "classpath*:conf/*.xml", "conf/app-?.xml", "conf/ghost-*.xml",
             "classpath:${ctx.file:ghost.xml}"]),
        "src/main/java/com/acme/AppConfig.java": config_class(
            "AppConfig",
            '@ImportResource(locations = {"classpath*:conf/**/*.xml", "nope/ghost-*.xml"})'),
    })
    assert findings(root, "r1-") == [R1_MESSAGE.format("conf/ghost-*.xml")]
    assert findings(root, "r14") == [R14_MESSAGE.format("nope/ghost-*.xml", "AppConfig")]


IMPORT_MESSAGE = "<import> resource {} in {} does not point at an existing file"


@pytest.mark.parametrize("resource, found", [
    ("app.xml", True),
    ("classpath:app.xml", True),
    ("conf/app-a.xml", True),  # under a resource root
    ("ghost.xml", False),
    ("classpath:conf/ghost.xml", False),
    ("${app.imports}", True),
    ("classpath:${env:dev}/ghost.xml", True),
], ids=lambda v: str(v))
def test_r14_checks_every_import_resource(tmp_path, resource, found):
    context = ('<beans>\n  <bean id="a" class="java.lang.Object"/>\n'
               f'  <import resource="{resource}"/>\n</beans>\n')
    root = write_project(tmp_path, {
        "src/main/resources/app.xml": BEANS,
        "src/main/resources/conf/app-a.xml": BEANS,
        "src/main/resources/context.xml": context,
    })
    summary = runner.run_checker(runner.CheckerConfig(project_root=str(root)))
    assert not summary.diagnostics
    reports = [(r.file_path, r.line, r.message) for r in summary.reports]
    context_path = "src/main/resources/context.xml"
    assert reports == ([] if found else
                       [(context_path, 3, IMPORT_MESSAGE.format(resource, context_path))])
