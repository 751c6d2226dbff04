"""Frozen dataclasses that hold arrays compare by identity.

The `==` that `@dataclass(frozen=True)` generates compares field tuples,
which raises on array fields ("the truth value of an array ... is
ambiguous") as soon as two instances are distinct; `eq=False` keeps the
identity comparison and hash of `object`.
"""
import ast
import pickle
from pathlib import Path

import numpy as np
import pytest

import particleflow
from particleflow.bounds import DivergenceCheckReport
from particleflow.flow import Ensemble
from particleflow.losses import QuadraticProjectionLoss
from particleflow.metrics import AssignmentResult, GaussianSummary
from particleflow.pose import make_pose_problem

EQUAL_PAIRS = {
    "Ensemble": lambda: Ensemble(np.zeros((3, 2))),
    "GaussianSummary": lambda: GaussianSummary(np.zeros(2), np.eye(2)),
    "AssignmentResult": lambda: AssignmentResult(np.arange(3), 1.0),
    "QuadraticProjectionLoss": lambda: QuadraticProjectionLoss(np.zeros(2), np.ones((3, 2))),
    "PoseRegistrationLoss": lambda: pickle.loads(pickle.dumps(make_pose_problem(12, 0.005, 1))),
    "DivergenceCheckReport": lambda: DivergenceCheckReport(np.zeros(3), np.zeros(3), np.ones(3), 0.0, 1.0, 0.1),
}


@pytest.mark.parametrize("name", sorted(EQUAL_PAIRS))
def test_equal_but_distinct_instances_compare_unequal_without_raising(name):
    a, b = EQUAL_PAIRS[name](), EQUAL_PAIRS[name]()
    assert type(a).__name__ == name
    assert (a == b) is False and (a != b) is True
    assert a == a and len({a, b}) == 2


def test_frozen_dataclasses_with_array_fields_declare_eq_false():
    found = {}
    for path in sorted(Path(particleflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Call) and getattr(decorator.func, "id", None) == "dataclass":
                    keywords = {k.arg: ast.literal_eval(k.value) for k in decorator.keywords}
                    arrays = any("np.ndarray" in ast.unparse(field.annotation)
                                 for field in node.body if isinstance(field, ast.AnnAssign))
                    if keywords.get("frozen") and arrays:
                        found[node.name] = keywords.get("eq", True)
    assert found == dict.fromkeys(EQUAL_PAIRS, False)
