"""Unit tests for check_deps.py (CI `gate-selftest`).

Run from the repo root with:

    python3 -m unittest discover -s scripts
"""

import os
import tempfile
import unittest

import check_deps

ROOT_MANIFEST = """\
[workspace]
members = ["crates/*"]

[workspace.dependencies]
magshield-a = { path = "crates/a" }
{extra_workspace}
[package]
name = "magshield"

[dependencies]
magshield-a.workspace = true
"""

MEMBER_MANIFEST = """\
[package]
name = "magshield-a"

[dependencies]
{extra_member}
[dev-dependencies]
magshield-b = { path = "../b" }
"""

LOCK = """\
version = 4

[[package]]
name = "magshield"
version = "0.1.0"
dependencies = [
 "magshield-a",
]

[[package]]
name = "magshield-a"
version = "0.1.0"
{extra_lock}"""


def workspace(
    dirname, extra_workspace="", extra_member="", extra_lock="", root_tail="", member_tail=""
):
    os.makedirs(os.path.join(dirname, "crates", "a"))
    files = {
        "Cargo.toml": ROOT_MANIFEST.replace("{extra_workspace}", extra_workspace) + root_tail,
        os.path.join("crates", "a", "Cargo.toml"): MEMBER_MANIFEST.replace(
            "{extra_member}", extra_member
        )
        + member_tail,
        "Cargo.lock": LOCK.replace("{extra_lock}", extra_lock),
    }
    for name, text in files.items():
        with open(os.path.join(dirname, name), "w", encoding="utf-8") as f:
            f.write(text)
    return dirname


class CheckDepsTest(unittest.TestCase):
    def test_allowlist_is_empty(self):
        self.assertEqual(check_deps.ALLOWED, frozenset())

    def test_workspace_of_path_crates_passes(self):
        with tempfile.TemporaryDirectory() as d:
            self.assertEqual(check_deps.check(workspace(d)), [])
            self.assertEqual(check_deps.main(["check_deps.py", d]), 0)

    def test_external_crate_in_workspace_dependencies_fails(self):
        with tempfile.TemporaryDirectory() as d:
            problems = check_deps.check(workspace(d, extra_workspace='rand = "0.8"\n'))
            self.assertEqual(len(problems), 1)
            self.assertIn("`rand`", problems[0])
            self.assertEqual(check_deps.main(["check_deps.py", d]), 1)

    def test_external_crate_in_member_manifest_fails(self):
        with tempfile.TemporaryDirectory() as d:
            problems = check_deps.check(
                workspace(d, extra_member='tokio = { version = "1" }\n')
            )
            self.assertTrue(any("`tokio`" in p for p in problems))

    def test_renamed_package_is_checked_under_its_real_name(self):
        with tempfile.TemporaryDirectory() as d:
            problems = check_deps.check(
                workspace(d, extra_member='fastrand = { version = "2", package = "oorandom" }\n')
            )
            self.assertTrue(any("`oorandom`" in p for p in problems))

    def test_path_and_workspace_references_are_not_external(self):
        manifest = {
            "dependencies": {
                "magshield-a": {"path": "../a"},
                "rand": {"workspace": True},
                "serde": "1",
            }
        }
        self.assertEqual(check_deps.external_deps(manifest), {"serde"})

    def test_stale_lock_entry_fails(self):
        stale = '\n[[package]]\nname = "serde"\nversion = "1.99.0"\n'
        with tempfile.TemporaryDirectory() as d:
            problems = check_deps.check(workspace(d, extra_lock=stale))
            self.assertEqual(len(problems), 1)
            self.assertIn("Cargo.lock lists `serde`", problems[0])

    def test_feature_allowlist_is_empty(self):
        self.assertEqual(check_deps.FEATURES_ALLOWED, frozenset())

    def test_features_table_in_member_manifest_fails(self):
        with tempfile.TemporaryDirectory() as d:
            problems = check_deps.check(workspace(d, member_tail="\n[features]\nsimd = []\n"))
            self.assertEqual(len(problems), 1)
            self.assertIn("`magshield-a` declares a [features] table", problems[0])
            self.assertEqual(check_deps.main(["check_deps.py", d]), 1)

    def test_empty_features_table_in_root_manifest_fails(self):
        with tempfile.TemporaryDirectory() as d:
            problems = check_deps.check(workspace(d, root_tail="\n[features]\n"))
            self.assertEqual(len(problems), 1)
            self.assertIn("`magshield` declares a [features] table", problems[0])

    def test_this_repository_passes(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.assertEqual(check_deps.check(root), [])


if __name__ == "__main__":
    unittest.main()
