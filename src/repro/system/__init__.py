"""The repair program of Figure 1: configuration, pipeline, and CLI.

The paper's system reads a configuration file describing the schema, the
integrity constraints, the flexible attributes, and the repair export mode;
a mapping component loads the data, builds the MWSCP instance, calls the
solver, and exports the repair.  This package is that architecture:
:class:`~repro.system.config.RepairConfig` is the configuration file,
:class:`~repro.system.pipeline.RepairProgram` wires the components, and
``repro repair`` (:mod:`repro.system.cli`) is the command-line entry point.
"""

from repro.system.config import RepairConfig
from repro.system.pipeline import ProgramReport, RepairProgram

__all__ = ["RepairConfig", "RepairProgram", "ProgramReport"]
