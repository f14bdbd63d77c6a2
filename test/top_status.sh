#!/bin/sh
# Runs `top --iterations 1` against a monitored shm search and fails
# unless it renders the /status fields (a `nodes:` line) rather than
# the raw HTTP response.
# Usage: top_status.sh path/to/yewpar.exe
bin=$1
log=$(mktemp)
trap 'rm -f "$log"' EXIT
"$bin" solve -i sip-sat-13a --runtime shm -w 2 -s depthbounded:2 --monitor-port 0 \
  >"$log" 2>&1 &
pid=$!
port=
tries=0
while [ -z "$port" ] && [ $tries -lt 1000 ]; do
  port=$(sed -n 's|^monitor: *http://127\.0\.0\.1:\([0-9]*\).*|\1|p' "$log")
  tries=$((tries + 1))
  [ -n "$port" ] || sleep 0.01
done
if [ -z "$port" ]; then
  echo "top_status: the solve run printed no monitor: line"
  cat "$log"
  kill $pid 2>/dev/null
  { wait $pid; } 2>/dev/null
  exit 1
fi
out=$("$bin" top --port "$port" --iterations 1 2>&1)
kill $pid 2>/dev/null
{ wait $pid; } 2>/dev/null
status=0
case $out in
*"HTTP/1."*)
  echo "top_status: top printed the raw HTTP response"
  status=1
  ;;
esac
printf '%s\n' "$out" | grep -q '^nodes:' || {
  echo "top_status: top rendered no nodes: line"
  status=1
}
[ $status -eq 0 ] || printf '%s\n' "$out"
exit $status
