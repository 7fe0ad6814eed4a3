#include "client.h"

#include <utility>

#include "server/http.h"

namespace servebench {

bool Connection::Open(uint16_t port) {
  Close();
  dialite::Result<dialite::TcpConn> conn = dialite::TcpConnect(port);
  if (!conn.ok()) return false;
  conn_ = std::move(*conn);
  return true;
}

void Connection::Close() {
  conn_.Close();
  buffer_.clear();
}

Response Connection::Send(const Request& req, bool close) {
  Response resp;
  if (!is_open()) return resp;
  const std::string wire =
      dialite::SerializeHttpRequest(req.method, req.target, req.body, close);
  if (!conn_.WriteAll(wire).ok() ||
      !dialite::ReadHttpResponse(conn_, &buffer_, &resp.status, &resp.body)
           .ok()) {
    Close();
    return Response{};
  }
  if (close) Close();
  return resp;
}

Response SendOnce(uint16_t port, const Request& req) {
  Connection conn;
  if (!conn.Open(port)) return Response{};
  return conn.Send(req, /*close=*/true);
}

}  // namespace servebench
