"""Empty on purpose: `fan.psi_demo` maps its fibers in a plain loop, since
threads only add cost to pure-Python big-integer work under the GIL.  The
module stays because `perfbench/tracer.py` imports every module named in
its `LAYERS` tuple; it goes together with that entry."""
