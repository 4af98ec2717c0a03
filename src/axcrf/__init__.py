"""Atrous neighbor-limited CRF refinement for point cloud classification."""

import sys

__version__ = "0.1.0"

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3     # glibc <malloc.h>


def _keep_freed_arrays():
    """Make glibc malloc reuse freed arrays instead of handing them back.

    Every block pass allocates and frees the same few MB of arrays. By
    default glibc hands the larger ones back to the kernel (munmap or heap
    trim), so each pass faults in fresh zeroed pages: about 120k faults and
    a third of the wall time of ``labels`` on 512-point samples, a kernel
    cost that swings with the machine's memory load. Arrays up to 32 MB now
    come from the heap and up to 128 MB of freed heap is kept. Process-wide
    and idempotent: the command line's ``dispatch`` and the synthetic recipe
    both set it, so in-process callers of either run under the command
    line's settings; a no-op off glibc.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 128 << 20)
