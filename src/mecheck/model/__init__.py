"""Queryable model of a Java project's sources and XML configuration.

Submodules:
    items     model item classes (classes, members, call sites, XML nodes)
    xmldoc    XML file parsing
    javasrc   declaration-level Java source scanning
    project   directory walk and ProjectModel assembly
"""

from mecheck.model.items import (
    AnnotationUse,
    CallSite,
    ClassItem,
    ConstructorItem,
    FieldItem,
    Members,
    MethodItem,
    Param,
    XmlElement,
    XmlFile,
)
from mecheck.model.project import ProjectModel, RootNotFound, build_model
from mecheck.model.xmldoc import MalformedXmlError, parse_xml

__all__ = [
    "AnnotationUse",
    "CallSite",
    "ClassItem",
    "ConstructorItem",
    "FieldItem",
    "MalformedXmlError",
    "Members",
    "MethodItem",
    "Param",
    "ProjectModel",
    "RootNotFound",
    "XmlElement",
    "XmlFile",
    "build_model",
    "parse_xml",
]
