"""The scalar oracle stays independent of the kernels it checks, and no scalar twin returns."""

import ast
import importlib
import inspect
from pathlib import Path

import rigidity

REFERENCE = Path(__file__).with_name("reference.py")
# the reference may import anything from these; from the rest of the package, classes only
OPEN_MODULES = {"rigidity.defaults", "rigidity.errors"}
PUBLIC_NAMES = {
    "ARTIFACT", "TOLERANCES", "VERSION", "tolerance",
    "SymFunProfile", "EqualityKind", "InequalityVerdict", "defect_coefficient", "main_inequality",
    "SurfaceSpec", "ShapeField", "build_sphere", "build_cylinder", "build_catenoid",
    "build_rotation_hypersurface", "build_ellipsoid", "chart_shape_operator", "ingest_field",
    "save_field",
    "EnergyReport", "rotational_energy", "conformal_rescale",
}


def test_oracle_independence():
    seen, offenders = set(), []
    for node in ast.walk(ast.parse(REFERENCE.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name.split(".")[0] == "rigidity"]
            seen.update(names)
            offenders += [name for name in names if name not in OPEN_MODULES]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rigidity":
            seen.add(node.module)
            if node.module not in OPEN_MODULES:
                module = importlib.import_module(node.module)
                offenders += [f"{node.module}.{alias.name}" for alias in node.names
                              if not inspect.isclass(getattr(module, alias.name, None))]
    assert "rigidity.defaults" in seen and "rigidity.errors" in seen
    assert offenders == []

    public = {name for name, value in vars(rigidity).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == PUBLIC_NAMES
