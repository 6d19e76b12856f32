"""The scalar oracle stays independent of the kernels it checks, no scalar twin returns,
every check of a stack reads one examination of it, and the package ships only the
tolerances it reads and the errors it raises."""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import rigidity
from rigidity import errors
from rigidity.defaults import TOLERANCES

REFERENCE = Path(__file__).with_name("reference.py")
# the reference may import anything from these; from the rest of the package, classes only
OPEN_MODULES = {"rigidity.defaults", "rigidity.errors"}
PUBLIC_NAMES = {
    "ARTIFACT", "TOLERANCES", "VERSION", "tolerance",
    "EqualityKind", "InequalityVerdict", "defect_coefficient", "main_inequality",
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


# the calls that make up one examination of a trace-free stack, and how often it makes each
EXAMINATION = {"norms_batch": 1, "eigen_spectrum_batch": 1, "symfun_from_spectrum_batch": 1,
               "_require_trace_free_batch": 2}


def test_one_examination_per_stack():
    # inside the package only spectral.examine_batch computes norms and spectra and checks a stack
    # trace-free, so every caller reads its record and no caller assembles a pipeline of its own
    calls = Counter()
    for path in sorted(Path(rigidity.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        scopes += [(None, node) for node in tree.body if not isinstance(node, ast.FunctionDef)]
        for scope, node in scopes:
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    name = getattr(call.func, "id", getattr(call.func, "attr", None))
                    if name in EXAMINATION:
                        calls[f"{path.stem}.{scope}", name] += 1
    assert calls == {("spectral.examine_batch", name): count for name, count in EXAMINATION.items()}


def _package_trees() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(Path(rigidity.__file__).parent.glob("*.py"))}


def test_every_tolerance_is_read():
    # reports echo the table whole, so it holds only the thresholds some module looks up
    names = {node.value for stem, tree in _package_trees().items() if stem != "defaults"
             for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert sorted(set(TOLERANCES) - names) == []


def test_every_error_is_raised():
    raised = set()
    for tree in _package_trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    shipped = {name for name, value in vars(errors).items()
               if inspect.isclass(value) and issubclass(value, errors.RigidityError)}
    assert sorted(shipped - raised - {"RigidityError"}) == []
