#!/usr/bin/env python3
"""Dependency ratchet for the CI `fmt` job.

Fails when the workspace declares an external crate outside the
allowlist (which is empty: the workspace builds offline from its own
sources), when a manifest declares a `[features]` table outside the
feature allowlist (also empty: every build compiles one configuration,
so no switch has an off side that CI does not build), or when
`Cargo.lock` lists a package that nothing in the workspace pulls in (a
leftover of a dependency that was removed from the manifests but not
from the lock file).

  check_deps.py [ROOT]

ROOT defaults to the repository this script lives in. Manifests are read
the way `perfbench/run.py` reads them: the root `Cargo.toml` (its
`[workspace.dependencies]` and its own dependency tables) plus every
`crates/*/Cargo.toml`. A dependency is external when it is neither a
`path` dependency nor a `workspace = true` reference. A lock package is
accounted for when it is a workspace member, a declared external crate,
or a dependency (per the lock file) of one that is.

Exit codes: 0 clean, 1 at least one problem (each printed on its own
line).
"""

import os
import sys
import tomllib

# Empty: no crate stays that the build cannot get offline. Adding one
# needs a DESIGN.md §5 entry.
ALLOWED = frozenset()

# Packages allowed a `[features]` table. Empty: a cargo feature is a
# second build of the crate, and each job here is done one way.
FEATURES_ALLOWED = frozenset()

DEP_TABLES = ("dependencies", "dev-dependencies", "build-dependencies")


def load_toml(path):
    with open(path, "rb") as f:
        return tomllib.load(f)


def external_deps(manifest):
    """Names of registry (non-path, non-workspace) dependencies in a manifest."""
    tables = [manifest.get("workspace", {}).get("dependencies", {})]
    tables += [manifest.get(key, {}) for key in DEP_TABLES]
    names = set()
    for table in tables:
        for name, spec in table.items():
            if isinstance(spec, str):
                names.add(name)
            elif isinstance(spec, dict) and "path" not in spec and not spec.get("workspace"):
                names.add(spec.get("package", name))
    return names


def manifests(root):
    """The root manifest, then each member manifest under crates/."""
    yield load_toml(os.path.join(root, "Cargo.toml"))
    crates = os.path.join(root, "crates")
    for member in sorted(os.listdir(crates)):
        path = os.path.join(crates, member, "Cargo.toml")
        if os.path.isfile(path):
            yield load_toml(path)


def check(root):
    """Every dependency-policy violation under `root`, as messages."""
    declared, members, featured = set(), set(), set()
    for manifest in manifests(root):
        declared |= external_deps(manifest)
        name = manifest.get("package", {}).get("name", "(workspace root)")
        if "package" in manifest:
            members.add(name)
        if "features" in manifest:
            featured.add(name)
    problems = [
        f"external crate `{name}` is declared but not on the allowlist"
        for name in sorted(declared - ALLOWED)
    ]
    problems += [
        f"`{name}` declares a [features] table, which is not on the allowlist"
        for name in sorted(featured - FEATURES_ALLOWED)
    ]

    lock_path = os.path.join(root, "Cargo.lock")
    if not os.path.isfile(lock_path):
        return problems
    packages = {}
    for package in load_toml(lock_path).get("package", []):
        packages.setdefault(package["name"], []).append(package)
    reachable, todo = set(), list(members | declared)
    while todo:
        name = todo.pop()
        if name in reachable:
            continue
        reachable.add(name)
        for package in packages.get(name, []):
            # Lock entries read "name" or, with several versions, "name version".
            todo.extend(dep.split()[0] for dep in package.get("dependencies", []))
    problems += [
        f"Cargo.lock lists `{name}`, which no manifest declares"
        for name in sorted(set(packages) - reachable)
    ]
    return problems


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    problems = check(root)
    for problem in problems:
        print(f"check_deps: {problem}")
    if not problems:
        print(
            f"check_deps: ok (crate allowlist: {', '.join(sorted(ALLOWED)) or 'empty'}, "
            f"feature allowlist: {', '.join(sorted(FEATURES_ALLOWED)) or 'empty'})"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
