"""Human-readable rendering of compiled plans (``repro explain-plan``)."""

from __future__ import annotations

from repro.plan.program import CompiledProgram


def render_plan_text(program: CompiledProgram) -> str:
    """The explain-plan table: constraint → action → data-dependent
    attributes → predicted ``f`` → diagnostics.

    One row per input constraint (eliminated entries show action
    ``skip``), followed by the solver pre-selection and the provenance /
    lint diagnostic counts.
    """
    rows: list[tuple[str, ...]] = []
    diag_by_label: dict[str, list[str]] = {}
    for diagnostic in (*program.provenance, *program.lint):
        if diagnostic.constraint:
            diag_by_label.setdefault(diagnostic.constraint, []).append(
                diagnostic.code
            )
    for entry in program.entries:
        codes = sorted(set(diag_by_label.get(entry.label, [])))
        rows.append(
            (
                entry.label,
                entry.action,
                ",".join(f"{r}.{a}" for r, a in entry.data_dependent) or "-",
                str(entry.predicted_frequency),
                ",".join(codes) if codes else "-",
            )
        )
    headers = ("constraint", "action", "data-dependent", "predicted_f", "diagnostics")
    widths = [
        max(len(header), *(len(row[i]) for row in rows)) if rows else len(header)
        for i, header in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    lines.append("")
    lines.append(f"fingerprint : {program.fingerprint}")
    lines.append(
        f"solver      : predicted_f={program.solver.predicted_max_frequency} "
        f"locality_ok={program.solver.locality_ok}"
    )
    lines.append(
        f"entries     : {len(program.executed_entries)} executed, "
        f"{len(program.skipped_entries)} eliminated"
    )
    lines.append(
        f"diagnostics : {len(program.provenance)} plan, "
        f"{len(program.lint)} lint"
    )
    return "\n".join(lines)
