#!/bin/sh
# A sample of each application under different skeletons (mirrors the
# artifact's example_commands.sh).
set -e
Y="dune exec bin/yewpar.exe --"
$Y solve -i brock400_1-s   --skeleton depthbounded:2    --runtime sim -l 8 -w 15
$Y solve -i rand15-a       --skeleton stacksteal        --runtime sim -l 8 -w 15
$Y solve -i knap-ss-20     --skeleton budget:1000       --runtime sim -l 8 -w 15
$Y solve -i sip-unsat-12   --skeleton stacksteal:chunked --runtime sim -l 8 -w 15
$Y solve -i ns-genus-21    --skeleton budget:100        --runtime sim -l 8 -w 15
$Y solve -i uts-bin-a      --skeleton randomspawn:32    --runtime sim -l 8 -w 15
$Y solve -i sanr200_0.9-s  --skeleton bestfirst:2       --runtime sim -l 8 -w 15
$Y solve -i sanr200_0.9-s  --skeleton ordered:2         --runtime shm -w 2
$Y solve -i p_hat700-3-s   --skeleton stacksteal        --runtime shm -w 4
