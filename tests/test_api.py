"""The public API: the package exports exactly the names in its modules' ``__all__`` lists."""

import importlib

import evidential

PUBLIC = [
    "And", "Atom", "EXTENDED", "EntailmentModeError", "Entails", "EvidentialError", "Formula",
    "FormulaSyntaxError", "Implies", "MassFunction", "Model", "ModelDocument", "ModelError",
    "NestedEntailmentError", "Not", "Or", "ProbabilityMeasure", "STRICT", "StateSet", "StateSpace",
    "TotalConflictError", "UndefinedConditioningError", "UnknownAtomError", "VariableValuation",
    "bel", "degree", "degree_given", "dempster_combine", "format_formula", "interpret", "lift_event",
    "load_document", "mass_from_evidence", "parse", "parse_document", "pointwise_combine",
    "pointwise_condition", "truth_set",
]
MODULES = ("errors", "formula", "model", "semantics", "belief", "document")


def test_the_package_exports_exactly_the_public_names():
    assert sorted(evidential.__all__) == PUBLIC
    assert len(set(evidential.__all__)) == len(evidential.__all__)
    for name in evidential.__all__:
        getattr(evidential, name)


def test_a_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from evidential import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC


def test_each_public_name_is_listed_by_the_one_module_that_defines_it():
    listed = {}
    for module_name in MODULES:
        module = importlib.import_module(f"evidential.{module_name}")
        for name in module.__all__:
            assert not name.startswith("_"), (module_name, name)
            assert hasattr(module, name), (module_name, name)
            assert name not in listed, (listed.get(name), module_name, name)
            listed[name] = module_name
            assert getattr(evidential, name) is getattr(module, name)
    assert sorted(listed) == PUBLIC
