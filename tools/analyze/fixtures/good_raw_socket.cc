// Known-good fixture for the raw-socket check: class-qualified calls that
// share a syscall's name (plain or through a template-id), prose mentions,
// and string literals are silent.
#include <string>

struct Conn {
  static int connect(int fd);
};

template <typename T>
struct Listener {
  static int bind(T port);
};

int Use() {
  // ::socket(AF_INET, ...) in a comment must not fire.
  std::string doc = "call ::socket() only inside src/server/net.cc";
  return Conn::connect(3) + Listener<int>::bind(8080);
}
