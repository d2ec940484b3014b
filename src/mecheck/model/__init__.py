"""Queryable model of a Java project's sources and XML configuration.

Submodules:
    items     model item classes (classes, members, call sites, XML nodes)
    xmldoc    XML file parsing
    javasrc   declaration-level Java source scanning
    project   directory walk and ProjectModel assembly
"""
