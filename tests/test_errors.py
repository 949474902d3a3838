import inspect
import pickle

import pytest

from snsim import errors
from snsim.errors import SimulationError

# one instance of every error type the package defines
EXAMPLES = {
    "SimulationError": ("generic failure",),
    "ConfigError": (["n_points must be a power of two", "mass must be > 0"],),
    "DegenerateInputError": ("zero-norm field has no moments",),
    "BoundaryLeakError": (0.25, 3e-9, 1e-12),
    "NonFiniteFieldError": (1.5,),
    "ExtractionError": ("pilot too narrow",),
    "ConvergenceError": ("no convergence", [3.0, 2.0, 1.5]),
}


def test_every_error_type_has_an_example():
    defined = {name for name, obj in inspect.getmembers(errors, inspect.isclass)
               if issubclass(obj, SimulationError)}
    assert defined == set(EXAMPLES)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_pickle_round_trip(name):
    # a process pool sends a failed member's error back by pickle
    exc = getattr(errors, name)(*EXAMPLES[name])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(exc, protocol))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert back.args == exc.args
        assert vars(back) == vars(exc)
