"""Hot kernels: the compiled extension when it is built, else the pure
Python twin.  BACKEND names the one that imported."""

try:
    from ._fast import BACKEND_NAME as BACKEND
    from ._fast import chsh_objective, dykstra_feasibility, maximize_chsh
except ImportError:
    from ._pure import BACKEND_NAME as BACKEND
    from ._pure import chsh_objective, dykstra_feasibility, maximize_chsh
