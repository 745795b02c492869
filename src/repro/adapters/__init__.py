"""Device adapters (paper Section III-C, Table II).

Adapters execute the two execution models (GEM/DEM) on a concrete
backend, all through :func:`get_adapter`; :func:`list_adapters` names
the registered families.  A GEM launch on any of them is one schedule of
:func:`~repro.adapters.base.run_parts` — a part count and a map:

* ``serial`` (:class:`~repro.adapters.serial.SerialAdapter`) — reference
  single-core backend, the whole batch in one part; ``strict=True`` runs
  one part a group, the purity oracle the tests compare against.
* ``openmp`` (:class:`~repro.adapters.openmp.OpenMPAdapter`) —
  multi-core CPU backend; groups are parallelized across cores (threads
  — NumPy releases the GIL on array kernels), each group's workload runs
  sequentially for cache locality, exactly the strategy in Table II.
* ``cuda``, ``hip``, ``sycl``
  (:class:`~repro.adapters.simulated.SimulatedAdapter`) — simulated
  devices: groups map to SMs/CUs, so a launch runs in waves of at most
  ``spec.units`` groups, one vectorized call a wave.  They differ only
  in the processor specs they accept.

Every launch emits a ``gem.<functor>`` or ``dem.<functor>`` span while
:mod:`repro.trace` is enabled; that is the one record of what ran.

All adapters produce **bit-identical** results for the same functor —
this is the portability guarantee the framework is named for, and it is
enforced by the cross-adapter test suite.
"""

from repro.adapters.base import DeviceAdapter, get_adapter, list_adapters
from repro.adapters.serial import SerialAdapter
from repro.adapters.openmp import OpenMPAdapter
from repro.adapters.simulated import SimulatedAdapter

__all__ = [
    "DeviceAdapter",
    "get_adapter",
    "list_adapters",
    "SerialAdapter",
    "OpenMPAdapter",
    "SimulatedAdapter",
]
