"""Generate the C-subset UB coverage reference (``docs/coverage.md``).

The document is *generated*, never hand-edited: it renders, for every dynamic
entry of :data:`repro.ub.catalog.UB_CATALOG`, either the injection templates
that exercise it or the allowlisted reason it cannot be generated (with its
blocker category).  CI regenerates the file and fails on any diff, so the
committed reference can never drift from the code.

Usage::

    python -m repro.fuzz.coverage_doc              # rewrite docs/coverage.md
    python -m repro.fuzz.coverage_doc --check      # exit 1 if it is stale
    python -m repro.fuzz.coverage_doc --stdout     # print to stdout
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.fuzz.generator import (
    GRADUATED,
    INJECTION_TEMPLATES,
    UNGENERATED,
    UNGENERATED_CATEGORIES,
)
from repro.ub.catalog import (
    PAPER_DYNAMIC_BEHAVIORS,
    PAPER_STATIC_BEHAVIORS,
    PAPER_TOTAL_BEHAVIORS,
    UB_CATALOG,
)

DEFAULT_PATH = Path("docs/coverage.md")

_HEADER = """\
# C-subset UB fuzz coverage

<!-- GENERATED FILE — do not edit.  Regenerate with:
         python -m repro.fuzz.coverage_doc
     CI regenerates this document and fails on any diff. -->

This reference maps every *dynamically detectable* undefined behavior of the
C11 catalog (`repro.ub.catalog`) to the fuzz generator's injection templates
(`repro.fuzz.generator.INJECTION_TEMPLATES`), or — when no template can
exercise it — to its allowlisted reason in `UNGENERATED`.  Every reason names
a blocker category, so the allowlist states *why* an entry cannot graduate.

Every template below is pinned verdict-equal across all three execution
engines (tree walker, lowered closures, compiled bytecode VM) by the engine
matrix (`tests/core/test_engine_matrix.py`), and exercised against the full
oracle stack — engine differential, ground truth, the closures' strict
verdict against the walker's observed run, and ablation monotonicity — by the
fuzz suite.
"""


def _template_index() -> dict[str, list[str]]:
    """Catalog id -> names of the templates that exercise it."""
    index: dict[str, list[str]] = {}
    for template in INJECTION_TEMPLATES:
        for identifier in template.catalog_ids:
            index.setdefault(identifier, []).append(template.name)
    return index


def _split_reason(reason: str) -> tuple[str, str]:
    category, _, detail = reason.partition(":")
    return category.strip(), detail.strip()


def render() -> str:
    """Render the complete coverage document as markdown."""
    by_id = _template_index()
    dynamic = [entry for entry in UB_CATALOG if entry.is_dynamic]
    generated = [entry for entry in dynamic if entry.identifier in by_id]
    allowlisted = [entry for entry in dynamic if entry.identifier in UNGENERATED]

    lines: list[str] = [_HEADER]
    lines.append("## Summary")
    lines.append("")
    lines.append("| | count |")
    lines.append("|---|---|")
    lines.append(
        f"| catalog entries (paper total {PAPER_TOTAL_BEHAVIORS}: "
        f"{PAPER_STATIC_BEHAVIORS} static + {PAPER_DYNAMIC_BEHAVIORS} "
        f"dynamic) | {len(UB_CATALOG)} |"
    )
    lines.append(f"| dynamic entries | {len(dynamic)} |")
    lines.append(f"| generated (covered by injection templates) | {len(generated)} |")
    lines.append(f"| allowlisted (`UNGENERATED`) | {len(allowlisted)} |")
    lines.append(f"| injection templates | {len(INJECTION_TEMPLATES)} |")
    lines.append(f"| graduated out of `UNGENERATED` | {len(GRADUATED)} |")
    lines.append("")

    lines.append("## Generated entries")
    lines.append("")
    lines.append(
        "Dynamic catalog entries exercised by at least one injection "
        "template.  All templates run on all three engines."
    )
    lines.append("")
    lines.append("| catalog entry | §C11 | injection templates |")
    lines.append("|---|---|---|")
    for entry in generated:
        names = ", ".join(f"`{name}`" for name in by_id[entry.identifier])
        lines.append(f"| `{entry.identifier}` | {entry.section} | {names} |")
    lines.append("")

    lines.append("## Allowlisted entries (`UNGENERATED`)")
    lines.append("")
    lines.append(
        "Dynamic catalog entries no template can exercise.  Categories: "
        + ", ".join(f"`{c}`" for c in UNGENERATED_CATEGORIES)
        + "."
    )
    lines.append("")
    lines.append("| catalog entry | §C11 | category | reason |")
    lines.append("|---|---|---|---|")
    for entry in allowlisted:
        category, detail = _split_reason(UNGENERATED[entry.identifier])
        lines.append(
            f"| `{entry.identifier}` | {entry.section} | `{category}` | {detail} |"
        )
    lines.append("")

    lines.append("## Graduated entries")
    lines.append("")
    lines.append(
        "Entries that once sat in `UNGENERATED` and are now generated; "
        "the catalog-coverage test pins them out of the allowlist forever."
    )
    lines.append("")
    lines.append("| catalog entry | graduated into template |")
    lines.append("|---|---|")
    for identifier, template_name in GRADUATED.items():
        lines.append(f"| `{identifier}` | `{template_name}` |")
    lines.append("")

    lines.append("## Template inventory")
    lines.append("")
    lines.append("| template | check family | expected kinds | catalog entries |")
    lines.append("|---|---|---|---|")
    for template in INJECTION_TEMPLATES:
        family = template.family or "*terminal*"
        kinds = ", ".join(f"`{kind.name}`" for kind in template.expected_kinds)
        ids = ", ".join(f"`{identifier}`" for identifier in template.catalog_ids)
        lines.append(f"| `{template.name}` | {family} | {kinds} | {ids} |")
    lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    return generated_doc_main(
        argv,
        module="repro.fuzz.coverage_doc",
        description="Generate (or verify) the UB fuzz-coverage reference.",
        default_path=DEFAULT_PATH,
        render=render,
    )


def generated_doc_main(argv, *, module, description, default_path, render) -> int:
    """The command line of a generated document: write it, print it
    (``--stdout``), or exit 1 if the file on disk is stale (``--check``)."""
    parser = argparse.ArgumentParser(
        prog=f"python -m {module}", description=description
    )
    parser.add_argument(
        "output",
        nargs="?",
        type=Path,
        default=default_path,
        help=f"destination markdown file (default: {default_path})",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="do not write; exit 1 if the file is stale",
    )
    parser.add_argument(
        "--stdout",
        action="store_true",
        help="print the document to stdout instead of writing",
    )
    arguments = parser.parse_args(argv)

    document = render()
    if arguments.stdout:
        sys.stdout.write(document)
        return 0
    if arguments.check:
        on_disk = arguments.output.read_text() if arguments.output.exists() else None
        if on_disk != document:
            print(
                f"{arguments.output} is stale; regenerate with `python -m {module}`",
                file=sys.stderr,
            )
            return 1
        print(f"{arguments.output} is up to date")
        return 0
    arguments.output.parent.mkdir(parents=True, exist_ok=True)
    arguments.output.write_text(document)
    print(f"wrote {arguments.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
