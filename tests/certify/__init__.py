"""Certificates of weillab's verdicts, checked with no weillab code."""
