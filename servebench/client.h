#ifndef SERVEBENCH_CLIENT_H_
#define SERVEBENCH_CLIENT_H_

#include <cstdint>
#include <string>

#include "server/net.h"

namespace servebench {

/// One HTTP/1.1 request as the load driver sends it.
struct Request {
  std::string method = "POST";
  std::string target;  ///< path plus query string, e.g. "/discover?k=10"
  std::string body;
};

/// One response as read off the wire.
struct Response {
  int status = 0;  ///< 0 when the exchange failed below HTTP
  std::string body;
};

/// A blocking keep-alive connection to 127.0.0.1:<port>, on the client
/// side the repository already has: TcpConnect, SerializeHttpRequest and
/// ReadHttpResponse, with the read buffer that carries leftover bytes from
/// one response to the next.
class Connection {
 public:
  /// Connects (closing any previous connection); false on failure.
  bool Open(uint16_t port);
  void Close();
  bool is_open() const { return conn_.valid(); }

  /// Sends `req` and reads the whole response. On a socket or framing error
  /// returns status 0 and closes the connection. `close` asks the server to
  /// close after answering.
  Response Send(const Request& req, bool close = false);

 private:
  dialite::TcpConn conn_;
  std::string buffer_;
};

/// Opens a connection, sends one request with "Connection: close", and
/// returns the response (status 0 when the server is unreachable).
Response SendOnce(uint16_t port, const Request& req);

}  // namespace servebench

#endif  // SERVEBENCH_CLIENT_H_
