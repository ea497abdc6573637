"""Simulation of mmWave V2V links assisted by conformal reflecting surfaces.

The package models cylindrical reflecting surfaces mounted on car doors,
either electronically tunable or factory-preconfigured, and the side-lane
relay links they form when the direct vehicle-to-vehicle ray is blocked.
"""

__version__ = "0.1.0"
