#include "util/flags.hpp"

#include <gtest/gtest.h>

namespace sma {
namespace {

Flags make(std::initializer_list<const char*> args) {
  std::vector<std::string> v;
  for (const char* a : args) v.emplace_back(a);
  return Flags(v);
}

TEST(Flags, EqualsForm) {
  const auto f = make({"--n=5", "--name=shifted"});
  EXPECT_EQ(f.get_int("n", 0), 5);
  EXPECT_EQ(f.get("name", ""), "shifted");
}

TEST(Flags, SpaceSeparatedForm) {
  const auto f = make({"--n", "7", "--rate", "2.5"});
  EXPECT_EQ(f.get_int("n", 0), 7);
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0), 2.5);
}

TEST(Flags, BareBooleanAndExplicitFalse) {
  const auto f = make({"--shifted", "--parity=false", "--verbose=1"});
  EXPECT_TRUE(f.get_bool("shifted", false));
  EXPECT_FALSE(f.get_bool("parity", true));
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_TRUE(f.get_bool("absent", true));
  EXPECT_FALSE(f.get_bool("absent2", false));
}

TEST(Flags, BareFlagFollowedByFlagIsBoolean) {
  const auto f = make({"--a", "--b=2"});
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_EQ(f.get_int("b", 0), 2);
}

TEST(Flags, PositionalArguments) {
  const auto f = make({"rebuild", "--n=3", "extra"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "rebuild");
  EXPECT_EQ(f.positional()[1], "extra");
}

TEST(Flags, IntList) {
  const auto f = make({"--fail=0,6,12"});
  EXPECT_EQ(f.get_int_list("fail"), (std::vector<int>{0, 6, 12}));
  EXPECT_TRUE(f.get_int_list("absent").empty());
}

TEST(Flags, MalformedValuesRecorded) {
  const auto f = make({"--n=abc", "--rate=x", "--flag=maybe", "--list=1,zz"});
  EXPECT_EQ(f.get_int("n", 9), 9);
  EXPECT_DOUBLE_EQ(f.get_double("rate", 1.5), 1.5);
  EXPECT_TRUE(f.get_bool("flag", true));
  f.get_int_list("list");
  EXPECT_EQ(f.errors().size(), 4u);
}

TEST(Flags, UnknownDetection) {
  // Whatever no getter asked for is unknown to the caller.
  const auto f = make({"--n=3", "--bogus=1"});
  EXPECT_EQ(f.get_int("n", 0), 3);
  EXPECT_TRUE(f.get_bool("parity", true));  // absent, still recorded
  EXPECT_EQ(f.unread(), (std::vector<std::string>{"bogus"}));
}

TEST(Flags, EveryGetterMarksItsFlagRead) {
  const auto f = make({"--a=1", "--b=2", "--c=x", "--d", "--e=1,2", "--f=3",
                       "--g=4"});
  EXPECT_EQ(f.unread(),
            (std::vector<std::string>{"a", "b", "c", "d", "e", "f", "g"}));
  f.get_int("a", 0);
  f.get_double("b", 0);
  f.get("c", "");
  f.get_bool("d", false);
  f.get_int_list("e");
  EXPECT_TRUE(f.has("f"));
  // A malformed value still counts as read: errors() reports it.
  EXPECT_EQ(f.unread(), (std::vector<std::string>{"g"}));
  f.get_int("g", 0);
  EXPECT_TRUE(f.unread().empty());
}

TEST(Flags, ArgcArgvConstructor) {
  const char* argv[] = {"prog", "cmd", "--n=4"};
  Flags f(3, argv);
  EXPECT_EQ(f.program(), "prog");
  EXPECT_EQ(f.positional()[0], "cmd");
  EXPECT_EQ(f.get_int("n", 0), 4);
}

TEST(Flags, LastOccurrenceWins) {
  const auto f = make({"--n=3", "--n=8"});
  EXPECT_EQ(f.get_int("n", 0), 8);
}

}  // namespace
}  // namespace sma
