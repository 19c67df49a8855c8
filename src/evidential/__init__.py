"""Variable-meaning semantics and evidentially supported belief.

Propositions are interpreted by *variable valuations*: each state of a
finite space carries its own reading of what a proposition means, so the
meaning itself is uncertain.  On top of this sit truth sets, a
meaning-entailment connective, and, given an exact-rational prior, a
conservative notion of belief supported by evidence that forms a
Dempster-Shafer belief function.
"""

import gc

# The imports allocate thousands of objects that all stay alive, so a collection that
# their allocations set off would free nothing: the collector is paused meanwhile and
# left as it was found.
_collecting = gc.isenabled()
gc.disable()
try:
    # The package publishes exactly the names in its modules' __all__ lists.
    from .errors import *
    from .formula import *
    from .model import *
    from .semantics import *
    from .belief import *
    from .document import *
finally:
    if _collecting:
        gc.enable()
del gc, _collecting

__version__ = "0.1.0"

__all__ = (errors.__all__ + formula.__all__ + model.__all__ + semantics.__all__
           + belief.__all__ + document.__all__)
