// Known-bad fixture for the raw-socket check: both the socket header and
// globally-qualified socket syscalls outside the net frame layer, including
// after a keyword and after a cast.
#include <sys/socket.h>

int OpenRogueSocket() {
  int fd = ::socket(2, 1, 0);  // check: raw-socket
  return fd;
}

long SendRogue(int fd) {
  (void)::shutdown(fd, 0);        // check: raw-socket
  return ::send(fd, "x", 1, 0);   // check: raw-socket
}
