// Pins JsonEscape (service/json.h) against RFC 8259: every control
// character below 0x20 must come out escaped (named escapes for the
// common ones, \u00xx for the rest), quotes and backslashes must be
// escaped, and everything else — including non-ASCII UTF-8 bytes — must
// pass through untouched. Graph literals are arbitrary bytes and flow
// into daemon JSON bodies (stream verb pair lists, error fields), so an
// unescaped control character would emit invalid JSON.

#include "service/json.h"

#include <gtest/gtest.h>

#include <string>

namespace rdfalign::service {
namespace {

TEST(JsonEscapeTest, NamedEscapes) {
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape("a\rb"), "a\\rb");
  EXPECT_EQ(JsonEscape("a\tb"), "a\\tb");
}

TEST(JsonEscapeTest, EveryControlCharacterIsEscaped) {
  for (int c = 0; c < 0x20; ++c) {
    const std::string in(1, static_cast<char>(c));
    const std::string out = JsonEscape(in);
    // Whatever the spelling, no raw control byte may survive.
    for (char byte : out) {
      EXPECT_GE(static_cast<unsigned char>(byte), 0x20u)
          << "control char " << c << " leaked through as raw byte";
    }
    EXPECT_GE(out.size(), 2u) << "control char " << c << " not escaped";
  }
  // The \u00xx spelling for characters without a named escape.
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(JsonEscape(std::string(1, '\x1f')), "\\u001f");
  EXPECT_EQ(JsonEscape(std::string(1, '\0')), "\\u0000");
}

TEST(JsonEscapeTest, PrintableAndUtf8PassThrough) {
  EXPECT_EQ(JsonEscape("plain ascii 123 {}[]"), "plain ascii 123 {}[]");
  // Multi-byte UTF-8 (é, 0xC3 0xA9) is valid in JSON strings unescaped.
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
  // 0x7f (DEL) is not a JSON control character; it passes through.
  EXPECT_EQ(JsonEscape("\x7f"), "\x7f");
}

TEST(JsonEscapeTest, MixedLiteralRoundTripsThroughJsonFindString) {
  // A literal of the shape the stream verbs emit: quotes, backslashes,
  // and tabs intermixed. JsonFindString must recover the original.
  std::string lex = "say \"hi\"\tc:\\path";
  // Every control byte but NUL, most of which JsonEscape writes as \u00XX.
  for (char c = 0x01; c < 0x20; ++c) lex += c;
  const std::string json = "{\"lex\": \"" + JsonEscape(lex) + "\"}";
  EXPECT_EQ(JsonFindString(json, "lex", ""), lex);
}

// An array opened inside an inline object stays on the object's line;
// the bench reports nest per-thread sweeps this way.
TEST(JsonBufTest, ArrayInsideAnItemStaysInline) {
  JsonBuf b;
  b.Num("scale", 0.0125).Array("points");
  b.Item().Int("n", 1).Array("sweep");
  b.Item().Int("threads", 1).Num("ms", 2.5, 2).End();
  b.Item().Int("threads", 2).Num("ms", 1.25, 2).End();
  b.End().Bool("ok", true).End();
  b.End();
  EXPECT_EQ(b.Take(),
            "{\n"
            "  \"scale\": 0.0125,\n"
            "  \"points\": [\n"
            "    {\"n\": 1, \"sweep\": [{\"threads\": 1, \"ms\": 2.50}, "
            "{\"threads\": 2, \"ms\": 1.25}], \"ok\": true}\n"
            "  ]\n"
            "}\n");
}

}  // namespace
}  // namespace rdfalign::service
